package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names; TestMetricsMatchBenchmarkJSON keeps the two in step.
type metricDef struct{ name, unit string }

// e2eMetrics are what an untraced run (--trace 0) reports: what a user of the
// system sees. Every workload runs a full field cycle, so each one reports
// every metric.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"bootstrap_s", "s"},
	{"retrain_s", "s"},
	{"precision", "%"},
	{"coverage", "%"},
	{"peak_heap_mb", "MB"},
	{"page_rps", "req/s"},
	{"page_p50_ms", "ms"},
	{"batch_pages_per_s", "pages/s"},
	{"batch_p50_ms", "ms"},
}

// layerMetrics are what a traced run (--trace 1) reports. Every time is the
// layer's self time; a layer the workload does not exercise reports 0.
// The p99 latencies and the open loop's p50 are here, not among the
// end-to-end metrics: over ten seeds on a shared 2-CPU container their
// quartile spreads reached 0.26 (page and batch p99), 0.34 (open p50) and
// 0.8 (open p99) of their medians, past any usable regression bound.
var layerMetrics = []metricDef{
	{"corpus.read_s", "s"},
	{"corpus.bytes_read", "bytes"},
	{"corpus.append_s", "s"},
	{"seed.discover_s", "s"},
	{"seed.split_s", "s"},
	{"seed.label_s", "s"},
	{"seed.pairs", "count"},
	{"seed.triples", "count"},
	{"crf.fit_s", "s"},
	{"crf.fit_alloc_mb", "MB"},
	{"crf.optimizer_iterations", "count"},
	{"crf.linesearch_evals", "count"},
	{"crf.decode_us", "us"},
	{"lstm.fit_s", "s"},
	{"lstm.fit_alloc_mb", "MB"},
	{"lstm.predict_us", "us"},
	{"lstm.repeat_token_share", "ratio"},
	{"extract.tag_s", "s"},
	{"extract.sentences", "count"},
	{"extract.spans", "count"},
	{"extract.page_us", "us"},
	{"extract.batch_us", "us"},
	{"cleaning.veto_s", "s"},
	{"cleaning.veto_kept_ratio", "ratio"},
	{"cleaning.semantic_s", "s"},
	{"cleaning.semantic_kept_ratio", "ratio"},
	{"word2vec.train_s", "s"},
	{"core.prep_s", "s"},
	{"core.seed_s", "s"},
	{"core.train_s", "s"},
	{"core.tag_s", "s"},
	{"core.veto_s", "s"},
	{"core.semantic_s", "s"},
	{"core.relabel_s", "s"},
	{"core.checkpoint_s", "s"},
	{"core.checkpoint_bytes", "bytes"},
	{"core.shards_reused", "count"},
	{"core.shards_recomputed", "count"},
	{"bundle.encode_s", "s"},
	{"bundle.bytes", "bytes"},
	{"bundle.load_s", "s"},
	{"serve.json_decode_us", "us"},
	{"serve.json_encode_us", "us"},
	{"serve.direct_p50_ms", "ms"},
	{"serve.direct_p99_ms", "ms"},
	{"serve.status_503", "count"},
	{"serve.status_4xx", "count"},
	{"fleet.hop_ms", "ms"},
	{"fleet.retries", "count"},
	{"fleet.shed", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"page_p99_ms", "ms"},
	{"open_p50_ms", "ms"},
	{"open_p99_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"obs.overhead_ratio", "ratio"},
	{"failed_ratio", "ratio"},
}
