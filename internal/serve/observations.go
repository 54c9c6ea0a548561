package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/campstore"
	"repro/internal/phash"
)

// ObservationRequest is the POST /v1/observations body: one external
// sighting of a screenshot hash on an e2LD, appended to a world's
// incremental campaign store. The target world is addressed either by
// its key ("world-1-tiny") or by the spec fields that derive it.
type ObservationRequest struct {
	World         string   `json:"world,omitempty"`
	Seed          int64    `json:"seed,omitempty"`
	Tiny          bool     `json:"tiny,omitempty"`
	MaxPublishers int      `json:"max_publishers,omitempty"`
	Networks      []string `json:"networks,omitempty"`

	// Hash is the 128-bit perceptual hash, 32 hex digits.
	Hash string `json:"hash"`
	// E2LD is the effective second-level domain the hash was seen on.
	E2LD string `json:"e2ld"`
	// Tick is the observation's virtual timestamp (optional; part of
	// the dedup identity).
	Tick time.Time `json:"tick"`
	// Source tags the event origin: "milk" or "api" (default "api").
	// "crawl" is reserved for the pipeline's own discovery stream.
	Source string `json:"source,omitempty"`
}

// worldKey resolves the request's target world.
func (o ObservationRequest) worldKey() string {
	if o.World != "" {
		return o.World
	}
	return WorldKey(JobSpec{
		Seed:          o.Seed,
		Tiny:          o.Tiny,
		MaxPublishers: o.MaxPublishers,
		Networks:      o.Networks,
	})
}

// ObservationRecord is one logged event as the read API returns it.
type ObservationRecord struct {
	Seq    uint64    `json:"seq"`
	Hash   string    `json:"hash"`
	E2LD   string    `json:"e2ld"`
	Tick   time.Time `json:"tick"`
	Source string    `json:"source"`
}

// appendResponse is the POST /v1/observations reply.
type appendResponse struct {
	World     string `json:"world"`
	Seq       uint64 `json:"seq"`
	Duplicate bool   `json:"duplicate"`
	NewPoint  bool   `json:"new_point"`
	NewHash   bool   `json:"new_hash"`
	// DistanceCalls is the number of full Hamming verifications the
	// append performed against the pigeonhole index (0 for known
	// hashes and duplicates).
	DistanceCalls int64 `json:"distance_calls"`
}

// toEvent validates one observation request and converts it to a
// store event. The returned message is a ready-to-serve 400 body when
// non-empty.
func (o ObservationRequest) toEvent() (campstore.Event, string) {
	h, err := phash.ParseHash(o.Hash)
	if err != nil {
		return campstore.Event{}, "bad observation hash: " + err.Error()
	}
	if o.E2LD == "" {
		return campstore.Event{}, "observation needs an e2ld"
	}
	switch o.Source {
	case "", campstore.SourceAPI, campstore.SourceMilk:
	case campstore.SourceCrawl:
		return campstore.Event{}, `source "crawl" is reserved for the pipeline's discovery stream`
	default:
		return campstore.Event{}, "unknown observation source " + strconv.Quote(o.Source)
	}
	return campstore.Event{Hash: h, E2LD: o.E2LD, Tick: o.Tick, Source: o.Source}, ""
}

// batchAppendResponse is the POST /v1/observations reply for a JSON
// array body: one result per submitted observation, in input order.
type batchAppendResponse struct {
	World   string           `json:"world"`
	Results []appendedResult `json:"results"`
}

// appendedResult is one event's outcome inside a batch append.
type appendedResult struct {
	Seq           uint64 `json:"seq"`
	Duplicate     bool   `json:"duplicate"`
	NewPoint      bool   `json:"new_point"`
	NewHash       bool   `json:"new_hash"`
	DistanceCalls int64  `json:"distance_calls"`
}

func (s *Server) handleAppendObservation(w http.ResponseWriter, r *http.Request) {
	if s.owner == nil {
		writeError(w, http.StatusServiceUnavailable, "observation log requires the built-in pipeline runner")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad observation: "+err.Error())
		return
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		writeError(w, http.StatusBadRequest, "bad observation: empty body")
		return
	}

	// A JSON array body is a batch append: all entries must address the
	// same world, validation failures reject the whole batch before
	// anything is appended, and the reply carries per-event results.
	// A JSON object body is the original single-observation form.
	if trimmed[0] == '[' {
		var reqs []ObservationRequest
		if err := decodeStrict(bytes.NewReader(trimmed), &reqs); err != nil {
			writeError(w, http.StatusBadRequest, "bad observation batch: "+err.Error())
			return
		}
		if len(reqs) == 0 {
			writeError(w, http.StatusBadRequest, "observation batch is empty")
			return
		}
		world := reqs[0].worldKey()
		events := make([]campstore.Event, len(reqs))
		for i, req := range reqs {
			if req.worldKey() != world {
				writeError(w, http.StatusBadRequest, fmt.Sprintf(
					"observation %d addresses world %q, batch started with %q", i, req.worldKey(), world))
				return
			}
			ev, msg := req.toEvent()
			if msg != "" {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("observation %d: %s", i, msg))
				return
			}
			events[i] = ev
		}
		st := s.owner.world(world, true)
		br, err := st.AppendBatch(events)
		if err != nil {
			// Validation ran above, so the only batch failure is a
			// poisoned store (the oracle caught a divergence).
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp := batchAppendResponse{World: world, Results: make([]appendedResult, len(br.Results))}
		for i, res := range br.Results {
			resp.Results[i] = appendedResult{
				Seq:           res.Seq,
				Duplicate:     res.Duplicate,
				NewPoint:      res.NewPoint,
				NewHash:       res.NewHash,
				DistanceCalls: res.DistanceCalls,
			}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Single-object form.
	var req ObservationRequest
	if err := decodeStrict(bytes.NewReader(trimmed), &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad observation: "+err.Error())
		return
	}
	ev, msg := req.toEvent()
	if msg != "" {
		writeError(w, http.StatusBadRequest, msg)
		return
	}
	world := req.worldKey()
	st := s.owner.world(world, true)
	res, err := st.Append(ev)
	if err != nil {
		// The only append failure past validation is a poisoned store
		// (the batch oracle caught an incremental divergence).
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, appendResponse{
		World:         world,
		Seq:           res.Seq,
		Duplicate:     res.Duplicate,
		NewPoint:      res.NewPoint,
		NewHash:       res.NewHash,
		DistanceCalls: res.DistanceCalls,
	})
}

// worldInfo summarizes one world store in the GET /v1/observations
// index (no ?world= given).
type worldInfo struct {
	World         string `json:"world"`
	Observations  int    `json:"observations"`
	Points        int    `json:"points"`
	LiveClusters  int    `json:"live_clusters"`
	Merges        int64  `json:"merges"`
	OracleRuns    int64  `json:"oracle_runs"`
	DistanceCalls int64  `json:"distance_calls"`
}

func (s *Server) handleListObservations(w http.ResponseWriter, r *http.Request) {
	if s.owner == nil {
		writeError(w, http.StatusServiceUnavailable, "observation log requires the built-in pipeline runner")
		return
	}
	q := r.URL.Query()
	world := q.Get("world")
	if world == "" {
		worlds := []worldInfo{}
		for _, k := range s.owner.Worlds() {
			st := s.owner.world(k, false)
			if st == nil {
				continue
			}
			stats := st.Stats()
			worlds = append(worlds, worldInfo{
				World:         k,
				Observations:  stats.Events,
				Points:        stats.Points,
				LiveClusters:  stats.LiveClusters,
				Merges:        stats.Merges,
				OracleRuns:    stats.OracleRuns,
				DistanceCalls: stats.Index.DistanceCalls,
			})
		}
		writeJSON(w, http.StatusOK, map[string]any{"worlds": worlds})
		return
	}
	st := s.owner.world(world, false)
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown world "+strconv.Quote(world))
		return
	}
	after, err := queryUint(q.Get("after"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad after: "+err.Error())
		return
	}
	limit, err := queryUint(q.Get("limit"), 100)
	if err != nil || limit == 0 || limit > 1000 {
		writeError(w, http.StatusBadRequest, "limit must be in [1,1000]")
		return
	}
	// The page and the total come from one snapshot, so next_after
	// (set by appendObservationsPage) marks exactly a page that stops
	// short of that snapshot's log.
	events, total := st.EventsPage(after, int(limit))
	records := make([]ObservationRecord, 0, len(events))
	for _, ev := range events {
		records = append(records, ObservationRecord{
			Seq:    ev.Seq,
			Hash:   ev.Hash.String(),
			E2LD:   ev.E2LD,
			Tick:   ev.Tick,
			Source: ev.Source,
		})
	}
	writeAppended(w, func(b []byte) ([]byte, error) {
		return appendObservationsPage(b, world, total, records)
	})
}

// queryUint parses an optional unsigned query parameter.
func queryUint(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseUint(s, 10, 63)
}
