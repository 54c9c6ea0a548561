// Package sessionio persists crawl sessions to JSON-lines files and
// loads them back, enabling the paper's crawl-once / analyse-many
// workflow: the crawler farm offloads "all the milking data, including
// screenshots, logs and downloaded files, to a file server" (Section
// 4.2), and discovery, attribution and milking-candidate extraction all
// run offline over the stored logs.
//
// The format is one JSON object per line; the first line is a header
// with a format version. Everything the pipeline consumes downstream of
// the crawl — landings with perceptual hashes and behaviour signals,
// plus the full browser event log — round-trips losslessly.
package sessionio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/adscript"
	"repro/internal/browser"
	"repro/internal/crawler"
	"repro/internal/phash"
	"repro/internal/urlx"
	"repro/internal/webtx"
)

// FormatVersion identifies the on-disk layout.
const FormatVersion = 1

type header struct {
	Format   string `json:"format"`
	Version  int    `json:"version"`
	Sessions int    `json:"sessions"`
}

type sessionRec struct {
	Publisher   string       `json:"publisher"`
	UserAgent   string       `json:"ua"`
	ClientIP    int          `json:"ip"`
	PublisherOK bool         `json:"ok"`
	Landings    []landingRec `json:"landings,omitempty"`
	Events      []eventRec   `json:"events,omitempty"`
}

type landingRec struct {
	URL         string        `json:"url"`
	E2LD        string        `json:"e2ld"`
	Status      int           `json:"status"`
	Hash        string        `json:"dhash,omitempty"`
	Hashed      bool          `json:"hashed"`
	Mobile      bool          `json:"mobile,omitempty"`
	Blocked     bool          `json:"blocked,omitempty"`
	Title       string        `json:"title,omitempty"`
	ParkedScore float64       `json:"parked,omitempty"`
	Downloads   []downloadRec `json:"downloads,omitempty"`
	Behaviour   behaviourRec  `json:"behaviour"`
}

type downloadRec struct {
	Filename   string `json:"filename"`
	SHA256     string `json:"sha256"`
	Size       int    `json:"size"`
	Format     string `json:"format"`
	CampaignID string `json:"campaign_id,omitempty"`
}

type behaviourRec struct {
	Alerts              int  `json:"alerts,omitempty"`
	BeforeUnload        bool `json:"before_unload,omitempty"`
	NotificationRequest bool `json:"notification,omitempty"`
	OpenedSignup        bool `json:"signup,omitempty"`
	Downloaded          bool `json:"downloaded,omitempty"`
}

type eventRec struct {
	Kind   int       `json:"k"`
	Tab    int       `json:"t"`
	Time   time.Time `json:"at"`
	From   string    `json:"f,omitempty"`
	To     string    `json:"to,omitempty"`
	Cause  string    `json:"c,omitempty"`
	API    string    `json:"api,omitempty"`
	Args   []string  `json:"args,omitempty"`
	Line   int       `json:"line,omitempty"`
	Script string    `json:"script,omitempty"`
	Detail string    `json:"d,omitempty"`
	// Download payload for EvDownload events.
	DL *downloadRec `json:"dl,omitempty"`
}

// Write streams sessions to w.
func Write(w io.Writer, sessions []*crawler.Session) error {
	sw, err := NewWriter(w, len(sessions))
	if err != nil {
		return err
	}
	for _, s := range sessions {
		if err := sw.Write(s); err != nil {
			return err
		}
	}
	return sw.Close()
}

// Writer streams sessions to an io.Writer one at a time, so a producer
// never holds the whole crawl: a streamed crawl hands each session over
// as it commits. The header names the session count up front.
type Writer struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	n, want int
}

// NewWriter writes the header of a file of n sessions to w.
func NewWriter(w io.Writer, n int) (*Writer, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Format: "seacma-sessions", Version: FormatVersion, Sessions: n}); err != nil {
		return nil, fmt.Errorf("sessionio: header: %w", err)
	}
	return &Writer{bw: bw, enc: enc, want: n}, nil
}

// Write appends one session; nil writes an empty session.
func (sw *Writer) Write(s *crawler.Session) error {
	if s == nil {
		s = &crawler.Session{}
	}
	if err := sw.enc.Encode(toRec(s)); err != nil {
		return fmt.Errorf("sessionio: session %d: %w", sw.n, err)
	}
	sw.n++
	return nil
}

// Close flushes the buffered output and fails when the number of
// sessions written differs from the header's. It does not close the
// underlying writer.
func (sw *Writer) Close() error {
	if err := sw.bw.Flush(); err != nil {
		return err
	}
	if sw.n != sw.want {
		return fmt.Errorf("sessionio: header says %d sessions, wrote %d", sw.want, sw.n)
	}
	return nil
}

// Read loads sessions written by Write.
func Read(r io.Reader) ([]*crawler.Session, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sessionio: empty input")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("sessionio: header: %w", err)
	}
	if h.Format != "seacma-sessions" {
		return nil, fmt.Errorf("sessionio: not a session file (format %q)", h.Format)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("sessionio: unsupported version %d", h.Version)
	}
	var out []*crawler.Session
	line := 1
	for sc.Scan() {
		line++
		var rec sessionRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("sessionio: line %d: %w", line, err)
		}
		s, err := fromRec(rec)
		if err != nil {
			return nil, fmt.Errorf("sessionio: line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sessionio: %w", err)
	}
	if h.Sessions != len(out) {
		return nil, fmt.Errorf("sessionio: header says %d sessions, read %d", h.Sessions, len(out))
	}
	return out, nil
}

func toRec(s *crawler.Session) sessionRec {
	rec := sessionRec{
		Publisher:   s.Publisher,
		UserAgent:   s.UserAgent.Name,
		ClientIP:    int(s.ClientIP),
		PublisherOK: s.PublisherOK,
	}
	for _, l := range s.Landings {
		lr := landingRec{
			URL: l.URL.String(), E2LD: l.E2LD, Status: l.Status,
			Hashed: l.Hashed, Mobile: l.Mobile, Blocked: l.Blocked,
			Title: l.Title, ParkedScore: l.ParkedScore,
			Behaviour: behaviourRec{
				Alerts:              l.Behaviour.Alerts,
				BeforeUnload:        l.Behaviour.BeforeUnload,
				NotificationRequest: l.Behaviour.NotificationRequest,
				OpenedSignup:        l.Behaviour.OpenedSignup,
				Downloaded:          l.Behaviour.Downloaded,
			},
		}
		if l.URL.IsZero() {
			lr.URL = ""
		}
		if l.Hashed {
			lr.Hash = l.Hash.String()
		}
		for _, d := range l.Downloads {
			lr.Downloads = append(lr.Downloads, downloadRec{
				Filename: d.Filename, SHA256: d.SHA256, Size: d.Size,
				Format: d.Format, CampaignID: d.CampaignID,
			})
		}
		rec.Landings = append(rec.Landings, lr)
	}
	for _, e := range s.Events {
		er := eventRec{
			Kind: int(e.Kind), Tab: e.Tab, Time: e.Time,
			From: e.From, To: e.To, Cause: e.Cause, Detail: e.Detail,
		}
		if e.Kind == browser.EvAPICall {
			er.API = e.API.Name
			er.Args = e.API.Args
			er.Line = e.API.Line
			er.Script = e.API.ScriptURL
		}
		if e.Download != nil {
			er.DL = &downloadRec{
				Filename: e.Download.Filename, SHA256: e.Download.SHA256,
				Size: e.Download.Size, Format: e.Download.Format,
				CampaignID: e.Download.CampaignID,
			}
		}
		rec.Events = append(rec.Events, er)
	}
	return rec
}

func fromRec(rec sessionRec) (*crawler.Session, error) {
	s := &crawler.Session{
		Publisher:   rec.Publisher,
		UserAgent:   uaByName(rec.UserAgent),
		ClientIP:    webtx.IPClass(rec.ClientIP),
		PublisherOK: rec.PublisherOK,
	}
	for _, lr := range rec.Landings {
		l := crawler.Landing{
			E2LD: lr.E2LD, Status: lr.Status, Hashed: lr.Hashed,
			Mobile: lr.Mobile, Blocked: lr.Blocked, Title: lr.Title,
			ParkedScore: lr.ParkedScore,
			Behaviour: crawler.Behaviour{
				Alerts:              lr.Behaviour.Alerts,
				BeforeUnload:        lr.Behaviour.BeforeUnload,
				NotificationRequest: lr.Behaviour.NotificationRequest,
				OpenedSignup:        lr.Behaviour.OpenedSignup,
				Downloaded:          lr.Behaviour.Downloaded,
			},
		}
		if lr.URL != "" {
			u, err := urlx.Parse(lr.URL)
			if err != nil {
				return nil, fmt.Errorf("landing url: %w", err)
			}
			l.URL = u
		}
		if lr.Hashed {
			h, err := phash.ParseHash(lr.Hash)
			if err != nil {
				return nil, fmt.Errorf("landing hash: %w", err)
			}
			l.Hash = h
		}
		for _, dr := range lr.Downloads {
			l.Downloads = append(l.Downloads, &webtx.Download{
				Filename: dr.Filename, SHA256: dr.SHA256, Size: dr.Size,
				Format: dr.Format, CampaignID: dr.CampaignID,
			})
		}
		s.Landings = append(s.Landings, l)
	}
	for _, er := range rec.Events {
		e := browser.Event{
			Kind: browser.EventKind(er.Kind), Tab: er.Tab, Time: er.Time,
			From: er.From, To: er.To, Cause: er.Cause, Detail: er.Detail,
		}
		if er.API != "" {
			e.API = adscript.APICall{Name: er.API, Args: er.Args, Line: er.Line, ScriptURL: er.Script}
		}
		if er.DL != nil {
			e.Download = &webtx.Download{
				Filename: er.DL.Filename, SHA256: er.DL.SHA256, Size: er.DL.Size,
				Format: er.DL.Format, CampaignID: er.DL.CampaignID,
			}
		}
		s.Events = append(s.Events, e)
	}
	return s, nil
}

func uaByName(name string) webtx.UserAgent {
	for _, ua := range webtx.AllUserAgents {
		if ua.Name == name {
			return ua
		}
	}
	return webtx.UserAgent{Name: name}
}
