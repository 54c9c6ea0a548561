package seacma

// Extensions beyond the paper's evaluation, implementing its future-work
// and defensive-application pointers:
//
//   - dataset export (Section 4: the released logs + screenshots),
//   - blacklist enrichment measurement (Sections 1/6: using the milking
//     feed as a live defence and quantifying the protection gained over
//     GSB alone),
//   - scam-phone blacklist access (Section 4.3).

import (
	"context"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/dataset"
	"repro/internal/devtools"
	"repro/internal/enrich"
	"repro/internal/imaging"
	"repro/internal/phonebl"
	"repro/internal/urlx"
	"repro/internal/webtx"
)

// RunExport runs the pipeline under ctx, as RunStream does, and writes
// the run's release artefacts (campaign index, SE-session browser logs,
// milking inventories, scam-phone blacklist, and one exemplar
// screenshot per still-reachable campaign) under dir. maxSessions
// bounds the number of per-session log files (0 = all).
//
// Which sessions reached an SE campaign is known only after discovery,
// and the streamed crawl drops each log at commit. So the run's session
// sink keeps the log of every session with a hashed landing (only those
// can join a campaign) until the export has written them; a plain Run
// pays none of that memory.
func (e *Experiment) RunExport(ctx context.Context, dir string, maxSessions int) (*Result, dataset.Summary, error) {
	res, logs, err := e.runKeepingLogs(ctx)
	if err != nil {
		return nil, dataset.Summary{}, err
	}
	sum, err := res.exportDataset(dir, maxSessions, logs)
	return res, sum, err
}

// runKeepingLogs runs the pipeline and returns, keyed by session index,
// the instrumentation log of every session with a hashed landing.
func (e *Experiment) runKeepingLogs(ctx context.Context) (*Result, map[int][]browser.Event, error) {
	logs := map[int][]browser.Event{}
	res, err := e.run(ctx, core.StreamOptions{OnSession: func(idx, _ int, s *crawler.Session) {
		for _, l := range s.Landings {
			if l.Hashed {
				logs[idx] = s.Events
				return
			}
		}
	}})
	return res, logs, err
}

// exportDataset writes the release artefacts of the run, reading the
// session logs from logs.
func (r *Result) exportDataset(dir string, maxSessions int, logs map[int][]browser.Event) (dataset.Summary, error) {
	return dataset.Export(dir, r.Sessions, logs, r.Discovery, r.Milking, dataset.Options{
		MaxSessions: maxSessions,
		Screenshots: r.campaignScreenshot,
	})
}

// campaignScreenshot re-visits one of a campaign's verified milking
// sources and captures the current landing page.
func (r *Result) campaignScreenshot(campaignID int) (*imaging.Image, bool) {
	for _, src := range r.Sources {
		if src.CampaignID != campaignID {
			continue
		}
		client := devtools.NewClient(r.exp.World.Internet, r.exp.World.Clock, devtools.ClientConfig{
			UserAgent: src.UA, ClientIP: src.ClientIP,
			StealthPatch: true, DialogBypass: true,
			ViewportScale: 2,
		})
		tab, err := client.Navigate(src.URL)
		if err != nil || tab.Status != webtx.StatusOK || tab.Doc == nil {
			continue
		}
		srcURL, err := urlx.Parse(src.URL)
		if err != nil || tab.URL.Host == srcURL.Host {
			continue
		}
		img, err := client.CaptureScreenshot(tab)
		if err != nil {
			continue
		}
		return img, true
	}
	return nil, false
}

// EnrichmentOutcome re-exports the enrichment replay result.
type EnrichmentOutcome = enrich.Outcome

// MeasureEnrichment quantifies the protection gained by feeding the
// milker's harvest into a blacklist with the given propagation delay,
// against synthetic victim traffic over each milked domain's exposure
// window. exposure is how long victims keep reaching a harvested domain
// (0 = 12h, a typical throw-away-domain lifetime).
func (r *Result) MeasureEnrichment(propagationDelay, exposure time.Duration, visitsPerDomain float64) EnrichmentOutcome {
	if r.Milking == nil {
		return EnrichmentOutcome{}
	}
	if exposure <= 0 {
		exposure = 12 * time.Hour
	}
	feed := enrich.NewFeed(propagationDelay)
	windows := make([]enrich.DomainWindow, 0, len(r.Milking.Domains))
	for _, d := range r.Milking.Domains {
		feed.Publish(d.Host, d.FirstSeen)
		windows = append(windows, enrich.DomainWindow{
			Domain: d.Host,
			From:   d.FirstSeen,
			To:     d.FirstSeen.Add(exposure),
		})
	}
	return enrich.Replay(windows, r.exp.World.GSB, feed, enrich.TrafficModel{
		VisitsPerDomain: visitsPerDomain,
		Seed:            r.exp.Cfg.World.Seed,
	})
}

// ScamPhoneBlacklist returns the phone blacklist harvested during
// milking (nil without milking).
func (r *Result) ScamPhoneBlacklist() *phonebl.Blacklist {
	if r.Milking == nil {
		return nil
	}
	return r.Milking.Phones
}
