package main

// The benchmark's fixed vocabulary: workload names, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repo root carries
// the same catalog for the driver; harness_test.go keeps the two in step.

// Workload names. Later issues refer to them verbatim.
const (
	wlPlaceCongested = "place_congested"
	wlPlaceLargeCalm = "place_large_calm"
	wlEcoChain       = "eco_chain"
	wlServeSmallJobs = "serve_small_jobs"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wlPlaceCongested, "MEDIA_SUBSYS/200 (6.2k cells, stress 0.85): net-bound GP kernels, all padding rounds fire, router must rip up and reroute; bypasses legalizer and service work"},
	{wlPlaceLargeCalm, "CT_TOP/75 (17k cells, 256x256 grid, stress 0.15): grid-bound density/FFT kernels and legalization dominate, router passes trivially; bypasses routability and router work"},
	{wlEcoChain, "OR1200/40 cold place then a chain of small seeded deltas: warm-start GP, incremental estimator journal and deposit fingerprints; legalization dominates a delta"},
	{wlServeSmallJobs, "pufferd subprocess, 2 closed-loop clients, tiny profile and Bookshelf-upload jobs: HTTP, parse, spool fsync, SSE and artifact serving dominate; bypasses every kernel"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd metrics are emitted by every workload's untraced run. An "op" is
// one closed-loop unit of the workload: a place+route rep, an ECO delta, a
// service job (see README.md for the per-workload definitions).
//
// Every bound sits at the contract's cap of 0.25: the driver judges a metric
// by its spread over ten different seeds, which on the shared 2-core
// authoring machine is 3–16 % for timings (machine speed drifts by that much
// over minutes) and 2–7 % for the quality metrics (design to design). A
// same-seed -compare of two result files is the sharp instrument: there the
// quality metrics are bit-identical.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"place_s", "s", lower, 0.25},
	{"hpwl", "units", lower, 0.25},
	{"routed_wl", "units", lower, 0.25},
	{"op_s_p50", "s", lower, 0.25},
	{"op_s_tail", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
}

// perLayer metrics are emitted by every workload's traced run; names are
// <module>.<metric>. They carry no bound.
var perLayer = []metricDef{
	{"synth.generate_ms", "ms", lower, 0},

	{"place.init_s", "s", lower, 0},
	{"place.gp_s", "s", lower, 0},
	{"place.iters", "count", lower, 0},
	{"place.gp_iter_ms_p50", "ms", lower, 0},
	{"place.gp_iter_ms_p95", "ms", lower, 0},

	{"wirelength.grad_ms", "ms", lower, 0},
	{"wirelength.pins_per_s", "1/s", higher, 0},
	{"wirelength.par_speedup", "ratio", higher, 0},

	{"density.deposit_ms", "ms", lower, 0},
	{"density.solve_ms", "ms", lower, 0},
	{"density.force_ms", "ms", lower, 0},
	{"density.par_speedup", "ratio", higher, 0},
	{"density.solve_skip_rate", "ratio", higher, 0},

	{"fft.dct128_us", "us", lower, 0},
	{"fft.dct256_us", "us", lower, 0},

	{"nesterov.step_self_us", "us", lower, 0},

	{"rsmt.build_us_per_net", "us", lower, 0},
	{"rsmt.memo_hit_rate", "ratio", higher, 0},

	{"cong.estimate_scratch_ms", "ms", lower, 0},
	{"cong.estimate_incr_ms", "ms", lower, 0},
	{"cong.hit_rate", "ratio", higher, 0},
	{"cong.allocs_per_estimate", "count", lower, 0},
	{"cong.hof_err_pts", "pts", lower, 0},
	{"cong.vof_err_pts", "pts", lower, 0},

	{"feature.extract_ms", "ms", lower, 0},

	{"padding.run_ms", "ms", lower, 0},
	{"padding.calls", "count", lower, 0},
	{"padding.self_ms", "ms", lower, 0},
	{"padding.padded_cells", "count", lower, 0},
	{"padding.recycled", "count", higher, 0},

	{"legal.legalize_s", "s", lower, 0},
	{"legal.cells_per_s", "1/s", higher, 0},
	{"legal.avg_disp", "units", lower, 0},
	{"legal.check_ms", "ms", lower, 0},

	{"dp.refine_s", "s", lower, 0},
	{"dp.moves", "count", higher, 0},
	{"dp.hpwl_gain_pct", "%", higher, 0},

	{"router.route_s", "s", lower, 0},
	{"router.segments", "count", lower, 0},
	{"router.reroute_ratio", "ratio", lower, 0},
	{"router.hof_pct", "%", lower, 0},
	{"router.vof_pct", "%", lower, 0},

	{"pipeline.overhead_ms", "ms", lower, 0},
	{"pipeline.alloc_mb", "MB", lower, 0},
	{"pipeline.allocs", "count", lower, 0},
	{"pipeline.checkpoint_ms", "ms", lower, 0},
	{"pipeline.checkpoint_kb", "KB", lower, 0},

	{"eco.gp_ms", "ms", lower, 0},
	{"eco.legal_ms", "ms", lower, 0},
	{"eco.dp_ms", "ms", lower, 0},
	{"eco.gp_iters", "count", lower, 0},
	{"eco.parse_validate_us", "us", lower, 0},
	{"eco.snapshot_ms", "ms", lower, 0},

	{"bookshelf.write_ms", "ms", lower, 0},
	{"bookshelf.parse_ms", "ms", lower, 0},
	{"bookshelf.parse_mb_per_s", "MB/s", higher, 0},

	{"cas.digest_ms", "ms", lower, 0},
	{"cas.put_ms", "ms", lower, 0},

	{"serve.boot_ms", "ms", lower, 0},
	{"serve.submit_ms", "ms", lower, 0},
	{"serve.queue_wait_ms", "ms", lower, 0},
	{"serve.run_ms", "ms", lower, 0},
	{"serve.notify_ms", "ms", lower, 0},
	{"serve.result_ms", "ms", lower, 0},
	{"serve.artifact_ms", "ms", lower, 0},
	{"serve.artifact_mb", "MB", lower, 0},
	{"serve.design_cache_hit_rate", "ratio", higher, 0},
	{"serve.rejected", "count", lower, 0},
	{"serve.notify_lost", "count", lower, 0},

	{"explore.suggest_us", "us", lower, 0},

	{"trace.coverage", "ratio", higher, 0},
	{"trace.overhead_pct", "%", lower, 0},
}

// minCoverage is the share of a traced parent's wall its child spans must
// account for; a traced run below it fails.
const minCoverage = 0.95

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, m := range defs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
