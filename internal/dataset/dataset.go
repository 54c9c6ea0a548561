// Package dataset exports the artefacts the paper releases to the
// community (Section 4): "we are releasing all browser logs and
// screenshots related to the SE attacks that we collected during our
// experiments" — a campaign index, per-session instrumentation logs for
// every session that reached an SE attack, the milked domain and binary
// inventories, the harvested scam-phone blacklist, and (when a live
// screenshot provider is available) one exemplar screenshot per
// campaign.
package dataset

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/imaging"
)

// ScreenshotFunc renders an exemplar screenshot for a discovered
// campaign; ok=false when the campaign cannot be reached anymore.
type ScreenshotFunc func(campaignID int) (img *imaging.Image, ok bool)

// Options configure an export.
type Options struct {
	// Screenshots, when non-nil, is used to render one PNG per campaign.
	Screenshots ScreenshotFunc
	// MaxSessions bounds how many SE-session logs are written (0 = all).
	MaxSessions int
}

// Summary describes what an export wrote.
type Summary struct {
	Campaigns   int
	SessionLogs int
	Screenshots int
	Domains     int
	Files       int
	Phones      int
}

type campaignRecord struct {
	ID         int      `json:"id"`
	Category   string   `json:"category"`
	Attacks    int      `json:"attacks"`
	Domains    []string `json:"domains"`
	RepHash    string   `json:"rep_dhash"`
	ScamPhones []string `json:"scam_phones,omitempty"`
}

type eventRecord struct {
	Kind   string    `json:"kind"`
	Tab    int       `json:"tab"`
	Time   time.Time `json:"time"`
	From   string    `json:"from,omitempty"`
	To     string    `json:"to,omitempty"`
	Cause  string    `json:"cause,omitempty"`
	API    string    `json:"api,omitempty"`
	Args   []string  `json:"args,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

type domainRecord struct {
	Host      string    `json:"host"`
	Category  string    `json:"category"`
	Campaign  int       `json:"campaign"`
	FirstSeen time.Time `json:"first_seen"`
	GSBInit   bool      `json:"gsb_init"`
	GSBFinal  bool      `json:"gsb_final"`
}

type fileRecord struct {
	SHA256    string `json:"sha256"`
	Category  string `json:"category"`
	Campaign  int    `json:"campaign"`
	Known     bool   `json:"previously_known"`
	Positives int    `json:"final_positives"`
	Label     string `json:"label,omitempty"`
}

// Export writes the dataset under dir. The directory is created; files
// are overwritten. logs holds the instrumentation log of each session
// that may be written, keyed by session index: every session that
// reached an SE attack must have one, since a streamed crawl keeps no
// logs in sessions.
func Export(dir string, sessions []*crawler.Session, logs map[int][]browser.Event,
	disc *core.DiscoveryResult, milk *core.MilkingResult, opts Options) (Summary, error) {
	var sum Summary
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sum, fmt.Errorf("dataset: %w", err)
	}

	// 1. Campaign index.
	var campaigns []campaignRecord
	seSessions := map[int]bool{}
	for _, c := range disc.Campaigns() {
		rec := campaignRecord{
			ID:         c.ID,
			Category:   string(c.Category),
			Attacks:    c.AttackCount(disc.Observations),
			Domains:    c.Domains,
			RepHash:    c.Rep.String(),
			ScamPhones: c.Signals.ScamPhones,
		}
		campaigns = append(campaigns, rec)
		for _, m := range c.Members {
			for _, ref := range disc.Observations[m].Refs {
				seSessions[ref.Session] = true
			}
		}
	}
	if err := writeJSON(filepath.Join(dir, "campaigns.json"), campaigns); err != nil {
		return sum, err
	}
	sum.Campaigns = len(campaigns)

	// 2. Browser logs of every session that reached an SE attack.
	logsDir := filepath.Join(dir, "logs")
	if err := os.MkdirAll(logsDir, 0o755); err != nil {
		return sum, fmt.Errorf("dataset: %w", err)
	}
	for si := range sessions {
		if !seSessions[si] {
			continue
		}
		if opts.MaxSessions > 0 && sum.SessionLogs >= opts.MaxSessions {
			break
		}
		events, ok := logs[si]
		if !ok {
			return sum, fmt.Errorf("dataset: no log for SE session %d", si)
		}
		if err := writeSessionLog(logsDir, si, sessions[si], events); err != nil {
			return sum, err
		}
		sum.SessionLogs++
	}

	// 3. Exemplar screenshots.
	if opts.Screenshots != nil {
		shotsDir := filepath.Join(dir, "screenshots")
		if err := os.MkdirAll(shotsDir, 0o755); err != nil {
			return sum, fmt.Errorf("dataset: %w", err)
		}
		for _, c := range disc.Campaigns() {
			img, ok := opts.Screenshots(c.ID)
			if !ok {
				continue
			}
			name := filepath.Join(shotsDir, fmt.Sprintf("campaign-%03d-%s.png", c.ID, c.Category))
			f, err := os.Create(name)
			if err != nil {
				return sum, fmt.Errorf("dataset: %w", err)
			}
			err = img.EncodePNG(f)
			f.Close()
			if err != nil {
				return sum, fmt.Errorf("dataset: %w", err)
			}
			sum.Screenshots++
		}
	}

	// 4. Milking inventories.
	if milk != nil {
		var domains []domainRecord
		for _, d := range milk.Domains {
			domains = append(domains, domainRecord{
				Host: d.Host, Category: string(d.Category), Campaign: d.CampaignID,
				FirstSeen: d.FirstSeen, GSBInit: d.GSBInit, GSBFinal: d.GSBFinal,
			})
		}
		if err := writeJSONL(filepath.Join(dir, "milked_domains.jsonl"), len(domains), func(i int) any { return domains[i] }); err != nil {
			return sum, err
		}
		sum.Domains = len(domains)

		var files []fileRecord
		for _, f := range milk.Files {
			files = append(files, fileRecord{
				SHA256: f.SHA256, Category: string(f.Category), Campaign: f.CampaignID,
				Known: f.Known, Positives: f.Final.Positives, Label: f.Final.Label,
			})
		}
		if err := writeJSONL(filepath.Join(dir, "milked_files.jsonl"), len(files), func(i int) any { return files[i] }); err != nil {
			return sum, err
		}
		sum.Files = len(files)

		if milk.Phones != nil {
			if err := writeJSON(filepath.Join(dir, "scam_phones.json"), milk.Phones.Entries()); err != nil {
				return sum, err
			}
			sum.Phones = milk.Phones.Len()
		}
	}
	return sum, nil
}

func writeSessionLog(dir string, idx int, s *crawler.Session, events []browser.Event) error {
	name := filepath.Join(dir, fmt.Sprintf("session-%05d-%s-%s.jsonl", idx, s.Publisher, s.UserAgent.Name))
	return writeJSONL(name, len(events), func(i int) any {
		e := events[i]
		rec := eventRecord{
			Kind: e.Kind.String(), Tab: e.Tab, Time: e.Time,
			From: e.From, To: e.To, Cause: e.Cause, Detail: e.Detail,
		}
		if e.Kind == browser.EvAPICall {
			rec.API = e.API.Name
			rec.Args = e.API.Args
		}
		return rec
	})
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("dataset: encode %s: %w", path, err)
	}
	return nil
}

func writeJSONL(path string, n int, item func(i int) any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for i := 0; i < n; i++ {
		if err := enc.Encode(item(i)); err != nil {
			return fmt.Errorf("dataset: encode %s: %w", path, err)
		}
	}
	return nil
}
