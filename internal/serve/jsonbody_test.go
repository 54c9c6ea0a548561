package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// encoderBytes is the reference for every response body: v through
// json.NewEncoder with SetIndent("", "  ").
func encoderBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// pageValue is the observation page as the map envelope the appender
// replaces.
func pageValue(world string, total int, records []ObservationRecord) map[string]any {
	body := map[string]any{
		"world":        world,
		"total":        total,
		"observations": records,
	}
	if n := len(records); n > 0 && records[n-1].Seq < uint64(total) {
		body["next_after"] = records[n-1].Seq
	}
	return body
}

// checkCampaignsBody compares appendCampaignsBody with the encoder over
// the envelope the handler used to encode, nil list included.
func checkCampaignsBody(t testing.TB, list []CampaignSummary) {
	t.Helper()
	got := appendCampaignsBody([]byte("prefix"), list)
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("appender dropped the bytes before it: %q", got)
	}
	env := list
	if env == nil {
		env = []CampaignSummary{}
	}
	want, err := encoderBytes(map[string]any{"campaigns": env})
	if err != nil {
		t.Fatal(err)
	}
	if got = got[len("prefix"):]; !bytes.Equal(got, want) {
		t.Fatalf("campaigns body differs from the encoder:\n got: %q\nwant: %q", got, want)
	}
}

// checkPageBody compares appendObservationsPage with the encoder: both
// fail, or both succeed with the same bytes.
func checkPageBody(t testing.TB, world string, total int, records []ObservationRecord) {
	t.Helper()
	got, gotErr := appendObservationsPage(nil, world, total, records)
	want, wantErr := encoderBytes(pageValue(world, total, records))
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("appender error %v, encoder error %v", gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("page body differs from the encoder:\n got: %q\nwant: %q", got, want)
	}
}

// awkwardStrings are strings encoding/json escapes or rewrites: HTML
// characters, quote, backslash, control bytes, invalid UTF-8 and the
// JavaScript line separators.
var awkwardStrings = []string{
	"",
	"plain.example",
	"<script>&amp;</script>",
	`say "hi"`,
	`back\slash`,
	"tab\tnew\nline\rnul\x00bell\x07del\x7f",
	"bad\xffutf8\xc3",
	"line para sep",
	"ünïcödé.example",
	"emoji-😀.example",
}

func TestCampaignsBodyMatchesEncoder(t *testing.T) {
	live := CampaignSummary{Key: "world-1-tiny/3", World: "world-1-tiny", ID: 3, Category: "Techsupport",
		Attacks: 12, Domains: []string{"a.example", "b.example"}, RepHash: "00ff",
		ScamPhones: []string{"+1-800-555-0100"}, Observations: 40, Merged: true}
	job := CampaignSummary{Key: "job-000001/0", JobID: "job-000001", ID: 0, Category: "tech_support",
		Attacks: 3, Domains: []string{"x.example"}, RepHash: "abcd"}
	cases := map[string][]CampaignSummary{
		"nil list":          nil,
		"empty list":        {},
		"zero summary":      {{}},
		"job scoped":        {job},
		"live":              {live},
		"mixed":             {job, live, job},
		"nil domains":       {{Key: "k", Domains: nil}},
		"empty domains":     {{Key: "k", Domains: []string{}}},
		"empty phones":      {{Key: "k", Domains: []string{"d"}, ScamPhones: []string{}}},
		"negative numbers":  {{ID: -1, Attacks: math.MinInt, Observations: -7}},
		"largest numbers":   {{ID: math.MaxInt, Attacks: math.MaxInt, Observations: math.MaxInt}},
		"awkward strings":   {{Key: awkwardStrings[2], JobID: awkwardStrings[3], World: awkwardStrings[4], Category: awkwardStrings[5], RepHash: awkwardStrings[6], Domains: awkwardStrings, ScamPhones: awkwardStrings}},
		"empty string item": {{Domains: []string{""}, ScamPhones: []string{""}}},
	}
	for name, list := range cases {
		t.Run(name, func(t *testing.T) { checkCampaignsBody(t, list) })
	}
}

func TestObservationsPageMatchesEncoder(t *testing.T) {
	utc := time.Date(2019, 3, 4, 5, 6, 7, 0, time.UTC)
	ticks := map[string]time.Time{
		"utc":             utc,
		"zero":            {},
		"nanoseconds":     utc.Add(123456789),
		"trailing zeros":  utc.Add(120 * time.Millisecond),
		"east zone":       utc.In(time.FixedZone("IST", 5*3600+1800)),
		"west zone":       utc.Add(1).In(time.FixedZone("PDT", -7*3600)),
		"seconds offset":  utc.In(time.FixedZone("LMT", -(3600 + 58))),
		"max offset":      utc.In(time.FixedZone("far", 24*3600-1)),
		"day offset":      utc.In(time.FixedZone("over", 24*3600)),
		"year 0":          time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		"year 9999":       time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		"negative year":   time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		"five digit year": time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for name, tick := range ticks {
		t.Run("tick "+name, func(t *testing.T) {
			checkPageBody(t, "w", 5, []ObservationRecord{{Seq: 1, Hash: "00ff", E2LD: "a.example", Tick: tick, Source: "api"}})
		})
	}
	records := []ObservationRecord{
		{Seq: 4, Hash: "0a0b", E2LD: "a.example", Tick: utc, Source: "api"},
		{Seq: 9, Hash: "0a0c", E2LD: "b.example", Tick: utc.Add(time.Second), Source: "milk"},
	}
	t.Run("empty page", func(t *testing.T) { checkPageBody(t, "world-1-tiny", 0, []ObservationRecord{}) })
	t.Run("nil page", func(t *testing.T) { checkPageBody(t, "world-1-tiny", 12, nil) })
	t.Run("with next_after", func(t *testing.T) { checkPageBody(t, "world-1-tiny", 12, records) })
	t.Run("last page", func(t *testing.T) { checkPageBody(t, "world-1-tiny", 9, records) })
	t.Run("zero record", func(t *testing.T) { checkPageBody(t, "", 0, []ObservationRecord{{}}) })
	for i, s := range awkwardStrings {
		t.Run("awkward "+strconv.Itoa(i), func(t *testing.T) {
			checkPageBody(t, s, 3, []ObservationRecord{{Seq: 2, Hash: s, E2LD: s, Tick: utc, Source: s}})
		})
	}
}

// TestWriteJSONMatchesEncoder pins the pooled writeJSON to the encoder's
// bytes, with a Content-Length, and a value that cannot encode to a 500.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	for _, v := range []any{
		map[string]any{"jobs": []JobView{{ID: "job-000001", State: StateDone, Error: "<&>"}}},
		apiError{Error: awkwardStrings[5]},
		[]int{},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, 201, v)
		want, err := encoderBytes(v)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != 201 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("writeJSON(%v) = %d %q, want %q", v, rec.Code, rec.Body.Bytes(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("Content-Length = %q for %d bytes", cl, len(want))
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, ClusterSummary{MeanParkedScore: math.NaN()})
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != 500 || err != nil || e.Error == "" {
		t.Fatalf("unencodable value = %d %q", rec.Code, rec.Body.Bytes())
	}
}

// FuzzResponseBodies holds both live-read appenders to the encoder on
// arbitrary strings, numbers, flags and ticks.
func FuzzResponseBodies(f *testing.F) {
	f.Add("world-1-tiny/0", "a.example", "+1-800", 3, 7, uint8(0xff), int64(1700000000), int64(5), int32(0))
	f.Add("<k>", "bad\xff", " ", -1, 0, uint8(0), int64(0), int64(0), int32(-3600))
	f.Add("", "", "", 0, 0, uint8(0x2a), int64(-62135596800), int64(0), int32(86400))
	f.Add(`q"\`, "\x00\x1f", "&", 1<<40, -5, uint8(0x15), int64(253402300800), int64(999999999), int32(19800))
	f.Fuzz(func(t *testing.T, key, dom, phone string, id, n int, flags uint8, sec, nsec int64, zone int32) {
		c := CampaignSummary{Key: key, ID: id, Category: phone, Attacks: n, RepHash: dom, Observations: n}
		if flags&1 != 0 {
			c.JobID = key
		}
		if flags&2 != 0 {
			c.World = dom
		}
		switch flags >> 2 & 3 {
		case 1:
			c.Domains = []string{}
		case 2:
			c.Domains = []string{dom, key, phone}
		case 3:
			c.Domains = []string{dom}
		}
		if flags&16 != 0 {
			c.ScamPhones = []string{phone}
		}
		c.Merged = flags&32 != 0
		list := []CampaignSummary{c}
		if flags&64 != 0 {
			list = append(list, c)
		}
		checkCampaignsBody(t, list)

		tick := time.Unix(sec, nsec).In(time.FixedZone(phone, int(zone)))
		rec := ObservationRecord{Seq: uint64(id), Hash: key, E2LD: dom, Tick: tick, Source: phone}
		checkPageBody(t, dom, n, []ObservationRecord{rec})
		if flags&128 != 0 {
			checkPageBody(t, key, n, nil)
		}
	})
}
