// Package worldgen assembles the complete synthetic web the SEACMA
// pipeline is evaluated against: ad networks, SE campaigns, benign
// advertisers and look-alike families, publisher websites, the
// source-code search index, the website categoriser, the Safe Browsing
// blacklist and the VirusTotal service — all derived deterministically
// from one seed.
//
// worldgen is the omniscient side of the experiment: it holds the ground
// truth (which campaign owns which attack domain, which network owns
// which serving domain) that the measurement pipeline in internal/core is
// later scored against. The pipeline itself only ever touches the
// Internet, the search engine, GSB lookups and VT submissions — the same
// interfaces the paper's system had.
package worldgen

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/adnet"
	"repro/internal/dom"
	"repro/internal/gsb"
	"repro/internal/rng"
	"repro/internal/secamp"
	"repro/internal/vclock"
	"repro/internal/vtsim"
	"repro/internal/webcat"
	"repro/internal/websearch"
	"repro/internal/webtx"
)

// Config sizes the world.
type Config struct {
	Seed int64
	// SeedPublishers is the number of publishers embedding seed-network
	// ads (the paper found 93,427); NewNetPublishers embed only the
	// three initially-unknown networks (the paper later found 8,981).
	SeedPublishers   int
	NewNetPublishers int
	// CampaignCounts per category; nil means the paper's Table 1 counts.
	CampaignCounts map[secamp.Category]int
	// Advertisers is the benign advertiser pool size.
	Advertisers int
	// Benign family counts (the paper's 22 benign clusters: 11 parked,
	// 6 adult-stock, 4 shortener, 1 spurious).
	ParkedFamilies, AdultFamilies, ShortenerFamilies, SpuriousFamilies int
	// FamilyDomains is how many domains each benign family spans.
	FamilyDomains int
	// OverlapRate is the fraction of seed publishers that additionally
	// carry a discovered-network snippet (how "unknown" SE attacks enter
	// the seed crawl).
	OverlapRate float64
	// EphemeralRate is the fraction of campaigns that retire mid-
	// experiment (their TDS goes dead); the milkable-URL verification
	// pass weeds their candidates out.
	EphemeralRate float64
	// GSBProfiles overrides the blacklist calibration (nil = default).
	GSBProfiles map[string]gsb.DetectionProfile
}

// DefaultConfig returns the bench-scale world: roughly 1% of the
// paper's publisher pool but the full 108 campaigns — big enough for
// every campaign to be discoverable, small enough for a minutes-long
// full pipeline run.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		SeedPublishers:    900,
		NewNetPublishers:  90,
		Advertisers:       120,
		ParkedFamilies:    11,
		AdultFamilies:     6,
		ShortenerFamilies: 4,
		SpuriousFamilies:  1,
		FamilyDomains:     8,
		OverlapRate:       0.15,
		EphemeralRate:     0.10,
	}
}

// TinyConfig is a fast smoke-test scale.
func TinyConfig() Config {
	c := DefaultConfig()
	c.SeedPublishers = 120
	c.NewNetPublishers = 12
	c.Advertisers = 30
	c.CampaignCounts = map[secamp.Category]int{
		secamp.FakeSoftware:  6,
		secamp.Registration:  4,
		secamp.Lottery:       2,
		secamp.Notifications: 1,
		secamp.Scareware:     1,
		secamp.TechSupport:   1,
	}
	return c
}

// Publisher is one ad-publishing website.
type Publisher struct {
	Host     string
	Rank     int // popularity rank (1 = most popular)
	Category string
	Networks []string // network names whose snippets the page embeds

	snippets []string
	layout   publisherLayout
}

type publisherLayout struct {
	bg       int
	nThumbs  int
	seed     uint64
	hasVideo bool
}

// Truth is the ground-truth oracle recorded during generation and
// updated live as campaigns mint domains.
type Truth struct {
	mu sync.Mutex
	// AttackDomainCampaign maps attack host -> campaign ID.
	attackDomainCampaign map[string]string
	// DomainBorn maps attack host -> birth time.
	domainBorn map[string]time.Time
	// NetworkOfDomain maps ad-network serving/click domains -> network.
	networkOfDomain map[string]string
	// CampaignCategory maps campaign ID -> category.
	campaignCategory map[string]secamp.Category
	// FamilyOfDomain maps benign-family/advertiser domains -> family ID.
	familyOfDomain map[string]string
	gsb            *gsb.Blacklist
}

// RecordAttackDomain implements secamp.Recorder: it stores ground truth
// and tells the GSB simulator a malicious domain was born.
func (t *Truth) RecordAttackDomain(campaignID string, cat secamp.Category, host string, born time.Time) {
	t.mu.Lock()
	t.attackDomainCampaign[host] = campaignID
	t.domainBorn[host] = born
	t.mu.Unlock()
	t.gsb.ObserveMaliciousDomain(host, cat.Key(), born)
}

// FamilyOfDomain returns the benign family or advertiser that owns a
// domain ("" if none) — the benign-side ground truth used to score
// clustering purity.
func (t *Truth) FamilyOfDomain(host string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.familyOfDomain[host]
}

// CampaignOfAttackDomain returns the owning campaign ("" if none).
func (t *Truth) CampaignOfAttackDomain(host string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attackDomainCampaign[host]
}

// NetworkOfDomain returns the ad network owning a domain ("" if none).
func (t *Truth) NetworkOfDomain(host string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.networkOfDomain[host]
}

// CategoryOfCampaign returns a campaign's category and whether it exists.
func (t *Truth) CategoryOfCampaign(id string) (secamp.Category, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.campaignCategory[id]
	return c, ok
}

// BornAt returns an attack domain's birth time.
func (t *Truth) BornAt(host string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.domainBorn[host]
	return b, ok
}

// AttackDomainCount returns how many attack domains exist so far.
func (t *Truth) AttackDomainCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.attackDomainCampaign)
}

// World is the fully assembled synthetic web.
type World struct {
	Cfg      Config
	Clock    *vclock.Clock
	Internet *webtx.Internet
	Search   *websearch.Engine
	Webcat   *webcat.Service
	GSB      *gsb.Blacklist
	VT       *vtsim.Service
	Truth    *Truth

	Networks    []*adnet.Network
	Campaigns   []*secamp.Campaign
	Advertisers []*secamp.Advertiser
	Families    []*secamp.BenignFamily
	Publishers  []*Publisher

	src *rng.Source
}

// Build assembles a world from the config.
func Build(cfg Config) *World {
	if cfg.CampaignCounts == nil {
		cfg.CampaignCounts = secamp.PaperCampaignCounts
	}
	if cfg.FamilyDomains < 5 {
		cfg.FamilyDomains = 5
	}
	src := rng.New(cfg.Seed)
	w := &World{
		Cfg:      cfg,
		Clock:    vclock.New(),
		Internet: webtx.NewInternet(),
		Search:   websearch.NewEngine(),
		src:      src,
	}
	// Nothing reads a world's request log, and it would hold every
	// request of the run (and serialize parallel crawl workers on its
	// lock); components keep their own accounting.
	w.Internet.SetLogging(false)
	w.Webcat = webcat.NewService(src)
	w.GSB = gsb.NewBlacklist(cfg.GSBProfiles, src)
	w.VT = vtsim.NewService(vtsim.Profile{}, src)
	w.Truth = &Truth{
		attackDomainCampaign: map[string]string{},
		domainBorn:           map[string]time.Time{},
		networkOfDomain:      map[string]string{},
		campaignCategory:     map[string]secamp.Category{},
		familyOfDomain:       map[string]string{},
		gsb:                  w.GSB,
	}

	w.buildNetworks()
	w.buildCampaigns()
	w.buildBenign()
	w.buildPublishers()
	return w
}

func (w *World) buildNetworks() {
	for _, spec := range adnet.Specs {
		n := adnet.New(spec, w.src)
		n.Install(w.Internet)
		w.Networks = append(w.Networks, n)
		w.Truth.mu.Lock()
		for _, d := range n.AllDomains() {
			w.Truth.networkOfDomain[d] = spec.Name
		}
		w.Truth.mu.Unlock()
	}
}

func (w *World) buildCampaigns() {
	csrc := w.src.Split("campaigns")
	idx := 0
	for _, cat := range secamp.AllCategories {
		count := w.Cfg.CampaignCounts[cat]
		for i := 0; i < count; i++ {
			id := fmt.Sprintf("%s-%02d", cat.Key(), i)
			ccfg := secamp.DefaultConfig(csrc)
			if csrc.Bool(w.Cfg.EphemeralRate) {
				ccfg.Lifetime = time.Duration(csrc.IntRange(48, 120)) * time.Hour
			}
			c := secamp.New(id, cat, i, ccfg, w.Clock, w.src, w.Truth)
			c.Install(w.Internet)
			w.Truth.mu.Lock()
			w.Truth.campaignCategory[id] = cat
			w.Truth.mu.Unlock()
			w.Campaigns = append(w.Campaigns, c)
			secamp.InstallCustomerSite(w.Internet, c.CustomerHost())

			// Contract the campaign to 1-4 networks, weighted by market
			// share, compatible categories only.
			weights := make([]float64, len(w.Networks))
			for j, n := range w.Networks {
				weights[j] = n.Spec.MarketWeight
			}
			contracts := csrc.IntRange(1, 4)
			chosen := map[int]bool{}
			for k := 0; k < contracts; k++ {
				j := csrc.Weighted(weights)
				if chosen[j] {
					continue
				}
				chosen[j] = true
				w.Networks[j].AddCampaign(c)
			}
			idx++
		}
	}
}

func (w *World) buildBenign() {
	fsrc := w.src.Split("benign")
	addFamily := func(kind secamp.BenignKind, count int, prefix string) {
		for i := 0; i < count; i++ {
			n := w.Cfg.FamilyDomains
			if kind == secamp.BenignSpurious {
				n = 5
			}
			f := secamp.NewBenignFamily(fmt.Sprintf("%s-%d", prefix, i), kind, n, fsrc)
			f.Install(w.Internet)
			w.Families = append(w.Families, f)
			w.Truth.mu.Lock()
			for _, d := range f.Domains {
				w.Truth.familyOfDomain[d] = f.ID
			}
			w.Truth.mu.Unlock()
			for _, net := range w.Networks {
				net.AddBenignFamily(f)
			}
		}
	}
	addFamily(secamp.BenignParked, w.Cfg.ParkedFamilies, "parked")
	addFamily(secamp.BenignAdultStock, w.Cfg.AdultFamilies, "adult")
	addFamily(secamp.BenignShortener, w.Cfg.ShortenerFamilies, "shortener")
	addFamily(secamp.BenignSpurious, w.Cfg.SpuriousFamilies, "spurious")

	for i := 0; i < w.Cfg.Advertisers; i++ {
		a := secamp.NewAdvertiser(fmt.Sprintf("adv-%03d", i), fsrc)
		a.Install(w.Internet)
		w.Advertisers = append(w.Advertisers, a)
		w.Truth.mu.Lock()
		w.Truth.familyOfDomain[a.Host] = "adv-" + a.Host
		w.Truth.mu.Unlock()
	}
	// Every network gets a slice of the advertiser pool.
	for _, net := range w.Networks {
		count := fsrc.IntRange(10, 30)
		if count > len(w.Advertisers) {
			count = len(w.Advertisers)
		}
		for _, j := range fsrc.Perm(len(w.Advertisers))[:count] {
			net.AddAdvertiser(w.Advertisers[j])
		}
	}
}

var pubTLDs = []string{"com", "net", "org", "info", "to", "cc", "me", "tv", "io", "ws", "co.uk", "xyz"}

func (w *World) buildPublishers() {
	psrc := w.src.Split("publishers")
	seedNets := make([]*adnet.Network, 0, len(w.Networks))
	newNets := make([]*adnet.Network, 0, 3)
	for _, n := range w.Networks {
		if n.Spec.Seed {
			seedNets = append(seedNets, n)
		} else {
			newNets = append(newNets, n)
		}
	}
	seedWeights := make([]float64, len(seedNets))
	for i, n := range seedNets {
		seedWeights[i] = n.Spec.MarketWeight
	}

	makePublisher := func(i int, nets []*adnet.Network) *Publisher {
		host := fmt.Sprintf("%s%d.%s", psrc.Token(psrc.IntRange(5, 11)), psrc.Intn(1000), rng.Pick(psrc, pubTLDs))
		rank := 10001 + psrc.Intn(3000000)
		r := psrc.Float64()
		if r < 0.0001 {
			rank = 1 + psrc.Intn(999)
		} else if r < 0.0012 {
			rank = 1000 + psrc.Intn(9000)
		}
		p := &Publisher{
			Host:     host,
			Rank:     rank,
			Category: w.Webcat.AssignRandom(host),
			layout: publisherLayout{
				bg:       0x909090 + psrc.Intn(0x6f6f6f),
				nThumbs:  psrc.IntRange(2, 6),
				seed:     uint64(psrc.Int63()) | 1,
				hasVideo: psrc.Bool(0.4),
			},
		}
		zone := adnet.ZoneFor(host)
		for _, n := range nets {
			p.Networks = append(p.Networks, n.Name())
			p.snippets = append(p.snippets, n.SnippetCode(zone))
		}
		w.installPublisher(p)
		return p
	}

	for i := 0; i < w.Cfg.SeedPublishers; i++ {
		// 1-3 seed networks ("greedy" publishers stack several).
		count := 1 + psrc.Weighted([]float64{0.55, 0.3, 0.15})
		chosen := map[int]bool{}
		var nets []*adnet.Network
		for len(nets) < count {
			j := psrc.Weighted(seedWeights)
			if chosen[j] {
				continue
			}
			chosen[j] = true
			nets = append(nets, seedNets[j])
		}
		// Some seed publishers also carry an unknown network's snippet —
		// this is how "unknown" SE attacks reach the seed crawl.
		if psrc.Bool(w.Cfg.OverlapRate) && len(newNets) > 0 {
			nets = append(nets, rng.Pick(psrc, newNets))
		}
		w.Publishers = append(w.Publishers, makePublisher(i, nets))
	}
	for i := 0; i < w.Cfg.NewNetPublishers; i++ {
		nets := []*adnet.Network{rng.Pick(psrc, newNets)}
		w.Publishers = append(w.Publishers, makePublisher(w.Cfg.SeedPublishers+i, nets))
	}
}

// installPublisher registers the publisher's host and indexes its page
// source in the search engine.
func (w *World) installPublisher(p *Publisher) {
	doc := p.buildDoc()
	source := doc.Serialize()
	w.Search.Index(p.Host, source, p.Rank)
	w.Internet.Register(p.Host, webtx.HandlerFunc(func(req *webtx.Request) *webtx.Response {
		// Rebuild per request (documents are mutated by script execution
		// in each browsing session and must not be shared across visits).
		return webtx.DocumentPage(p.buildDoc())
	}))
}

// buildDoc builds the publisher's front page: thumbnails, an optional
// fake video player, and the ad-network snippets.
func (p *Publisher) buildDoc() *dom.Document {
	root := dom.NewElement("body")
	root.W, root.H = 1024, 768
	root.Style.Background = p.layout.bg
	doc := &dom.Document{URL: "http://" + p.Host + "/", Title: p.Host, Root: root}

	header := dom.NewElement("div").SetAttr("id", "header")
	header.W, header.H = 1024, 60
	header.Style.Background = p.layout.bg - 0x202020
	root.Append(header)

	if p.layout.hasVideo {
		player := dom.NewElement("img").SetAttr("id", "player").SetAttr("src", "/player.jpg")
		player.X, player.Y, player.W, player.H = 152, 100, 720, 405
		player.Style.Background = 0x101010
		root.Append(player)
	}
	for i := 0; i < p.layout.nThumbs; i++ {
		th := dom.NewElement("img").SetAttr("id", fmt.Sprintf("thumb%d", i)).
			SetAttr("src", fmt.Sprintf("/t%d.jpg", i))
		th.X = 40 + (i%3)*330
		th.Y = 540 + (i/3)*110
		th.W, th.H = 300, 100
		th.Style.Background = int(p.layout.seed>>uint(i*3)) % 0xffffff
		root.Append(th)
	}
	for _, sn := range p.snippets {
		doc.Scripts = append(doc.Scripts, dom.ScriptRef{Code: sn})
	}
	return doc
}

// SeedPublisherHosts returns the hosts of publishers that embed at least
// one seed network (ground truth; the pipeline derives its own list via
// the search engine).
func (w *World) SeedPublisherHosts() []string {
	var out []string
	for _, p := range w.Publishers {
		for _, n := range p.Networks {
			if isSeedName(n) {
				out = append(out, p.Host)
				break
			}
		}
	}
	return out
}

func isSeedName(name string) bool {
	for _, s := range adnet.Specs {
		if s.Name == name {
			return s.Seed
		}
	}
	return false
}

// NetworkByName returns the network with the given name, or nil.
func (w *World) NetworkByName(name string) *adnet.Network {
	for _, n := range w.Networks {
		if n.Name() == name {
			return n
		}
	}
	return nil
}

// CampaignByID returns the campaign with the given id, or nil.
func (w *World) CampaignByID(id string) *secamp.Campaign {
	for _, c := range w.Campaigns {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// PublisherByHost returns the publisher serving host, or nil.
func (w *World) PublisherByHost(host string) *Publisher {
	for _, p := range w.Publishers {
		if p.Host == host {
			return p
		}
	}
	return nil
}
