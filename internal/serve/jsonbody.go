package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Every JSON response is exactly what json.NewEncoder(w) with
// SetIndent("", "  ") writes for the value: two-space indentation, HTML
// characters escaped, one trailing newline. writeJSON gets there by
// encoding into a pooled buffer and indenting into a second one; the
// two live reads that grow with the store (/v1/campaigns and a page of
// the observation log) skip both passes and append their indented bytes
// directly, with the fuzz test in jsonbody_test.go holding them to the
// encoder's output.

// maxPooledBody caps the capacity of a buffer returned to bodyPool, so
// a rare huge response does not leave its buffers resident for every
// later request to carry.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBody() *bytes.Buffer {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBody(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// writeJSON writes v as indented JSON with status code. A value that
// fails to encode is answered with a 500 instead.
func writeJSON(w http.ResponseWriter, code int, v any) {
	raw, out := getBody(), getBody()
	defer putBody(raw)
	defer putBody(out)
	err := json.NewEncoder(raw).Encode(v)
	if err == nil {
		err = json.Indent(out, raw.Bytes(), "", "  ")
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	writeBody(w, code, out.Bytes())
}

// writeAppended serves the bytes an appender leaves in a pooled buffer.
func writeAppended(w http.ResponseWriter, appendBody func([]byte) ([]byte, error)) {
	buf := getBody()
	defer putBody(buf)
	b, err := appendBody(buf.AvailableBuffer())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	writeBody(w, http.StatusOK, b)
	if cap(b) > buf.Cap() {
		// The body outgrew the pooled array: pool the larger one.
		*buf = *bytes.NewBuffer(b)
	}
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// appendCampaignsBody appends the /v1/campaigns body,
// {"campaigns": list}, with a nil list written as [].
func appendCampaignsBody(b []byte, list []CampaignSummary) []byte {
	if len(list) == 0 {
		return append(b, "{\n  \"campaigns\": []\n}\n"...)
	}
	b = append(b, "{\n  \"campaigns\": ["...)
	for i := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCampaign(b, &list[i])
	}
	return append(b, "\n  ]\n}\n"...)
}

// appendCampaign appends one CampaignSummary as an element of the
// campaigns list, fields in struct order.
func appendCampaign(b []byte, c *CampaignSummary) []byte {
	const field = ",\n      \""
	b = append(b, "\n    {\n      \"key\": "...)
	b = appendString(b, c.Key)
	if c.JobID != "" {
		b = append(b, field+`job_id": `...)
		b = appendString(b, c.JobID)
	}
	if c.World != "" {
		b = append(b, field+`world": `...)
		b = appendString(b, c.World)
	}
	b = append(b, field+`id": `...)
	b = strconv.AppendInt(b, int64(c.ID), 10)
	b = append(b, field+`category": `...)
	b = appendString(b, c.Category)
	b = append(b, field+`attacks": `...)
	b = strconv.AppendInt(b, int64(c.Attacks), 10)
	b = append(b, field+`domains": `...)
	b = appendStringList(b, c.Domains)
	b = append(b, field+`rep_hash": `...)
	b = appendString(b, c.RepHash)
	if len(c.ScamPhones) > 0 {
		b = append(b, field+`scam_phones": `...)
		b = appendStringList(b, c.ScamPhones)
	}
	if c.Observations != 0 {
		b = append(b, field+`observations": `...)
		b = strconv.AppendInt(b, int64(c.Observations), 10)
	}
	if c.Merged {
		b = append(b, field+`merged": true`...)
	}
	return append(b, "\n    }"...)
}

// appendStringList appends a campaign's string list field value: null
// for nil, [] for empty, otherwise one element per line.
func appendStringList(b []byte, list []string) []byte {
	switch {
	case list == nil:
		return append(b, "null"...)
	case len(list) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n        "...)
		b = appendString(b, s)
	}
	return append(b, "\n      ]"...)
}

// appendObservationsPage appends the /v1/observations?world= body, the
// map envelope's keys in sorted order. next_after, the last record's
// seq, is present only when the page stops short of total.
func appendObservationsPage(b []byte, world string, total int, records []ObservationRecord) ([]byte, error) {
	b = append(b, "{\n  "...)
	if n := len(records); n > 0 && records[n-1].Seq < uint64(total) {
		b = append(b, `"next_after": `...)
		b = strconv.AppendUint(b, records[n-1].Seq, 10)
		b = append(b, ",\n  "...)
	}
	b = append(b, `"observations": `...)
	switch {
	case records == nil:
		b = append(b, "null"...)
	case len(records) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range records {
			if i > 0 {
				b = append(b, ',')
			}
			r := &records[i]
			b = append(b, "\n    {\n      \"seq\": "...)
			b = strconv.AppendUint(b, r.Seq, 10)
			b = append(b, ",\n      \"hash\": "...)
			b = appendString(b, r.Hash)
			b = append(b, ",\n      \"e2ld\": "...)
			b = appendString(b, r.E2LD)
			b = append(b, ",\n      \"tick\": "...)
			var err error
			if b, err = appendTime(b, r.Tick); err != nil {
				return nil, err
			}
			b = append(b, ",\n      \"source\": "...)
			b = appendString(b, r.Source)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"total\": "...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, ",\n  \"world\": "...)
	b = appendString(b, world)
	return append(b, "\n}\n"...), nil
}

// plainByte marks the bytes a JSON string carries unescaped: printable
// ASCII other than the quote, the backslash and the HTML characters
// encoding/json escapes.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s as a JSON string. A string of plain bytes is
// copied as is; anything else goes through json.Marshal, so the
// escaping is always encoding/json's own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendTime appends t as time.Time.MarshalJSON writes it. A year in
// [0,9999] and a zone offset under a day format the same through
// AppendFormat without the allocation; any other time is left to
// MarshalJSON, which refuses some of them.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off <= -24*60*60 || off >= 24*60*60 {
		q, err := t.MarshalJSON()
		return append(b, q...), err
	}
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"'), nil
}
