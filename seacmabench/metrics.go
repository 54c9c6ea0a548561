package main

// metricDef declares one reported metric. The lists below mirror
// BENCHMARK.json; TestMetricsMatchBenchmarkJSON keeps them in step.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// e2eMetrics are reported by every untraced run. "Operation" is the
// workload's unit of work: one analyst job (crawl, milk) or one
// observation batch (ingest).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_cpu_ms", "ms"},
	{"rss_mb", "MB"},
}

// layerMetrics are reported by every traced run. A layer the workload
// does not exercise reports 0.
var layerMetrics = []metricDef{
	{"worldgen.build_s", "s"},
	{"reverse.busy_s", "s"},
	{"reverse.publishers", "count"},
	{"crawler.busy_s", "s"},
	{"crawler.sessions", "count"},
	{"crawler.session_p50_ms", "ms"},
	{"crawler.session_p99_ms", "ms"},
	{"crawler.landings", "count"},
	{"capture.hits", "count"},
	{"capture.misses", "count"},
	{"capture.hit_ratio", "ratio"},
	{"script.hits", "count"},
	{"script.misses", "count"},
	{"script.hit_ratio", "ratio"},
	{"btgraph.busy_s", "s"},
	{"btgraph.graphs", "count"},
	{"btgraph.edges", "count"},
	{"attrib.busy_s", "s"},
	{"attrib.attributions", "count"},
	{"discovery.busy_s", "s"},
	{"discovery.observations", "count"},
	{"discovery.clusters", "count"},
	{"discovery.campaigns", "count"},
	{"discovery.distance_calls", "count"},
	{"milker.extract_busy_s", "s"},
	{"milker.candidates", "count"},
	{"milker.verify_busy_s", "s"},
	{"milker.sources", "count"},
	{"milker.verify_yield", "ratio"},
	{"milker.track_busy_s", "s"},
	{"milker.sessions", "count"},
	{"milker.domains", "count"},
	{"milker.sessions_per_s", "1/s"},
	{"report.busy_s", "s"},
	{"report.bytes", "bytes"},
	{"job.alloc_mb", "MB"},
	{"campstore.append_p50_ms", "ms"},
	{"campstore.append_p99_ms", "ms"},
	{"campstore.append_busy_s", "s"},
	{"campstore.distance_calls", "count"},
	{"campstore.new_points", "count"},
	{"campstore.duplicates", "count"},
	{"campstore.merges", "count"},
	{"campstore.points_end", "count"},
	{"campstore.read_p50_ms", "ms"},
	{"campstore.page_p50_ms", "ms"},
	{"serve.ingest_p50_ms", "ms"},
	{"serve.ingest_p99_ms", "ms"},
	{"serve.read_p50_ms", "ms"},
	{"serve.read_p99_ms", "ms"},
	{"serve.ingest_overhead_p50_ms", "ms"},
	{"serve.read_overhead_p50_ms", "ms"},
	{"trace.unaccounted_s", "s"},
	{"trace.overhead_s", "s"},
}

// unitOf maps every declared metric to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range l {
			m[d.Name] = d.Unit
		}
	}
	return m
}()
