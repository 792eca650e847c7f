package main

import (
	"fmt"

	"plp/internal/engine"
)

// layerDef is one per-layer metric: its unit, the layer (module) it
// measures, and the end-to-end metric and workload it should move.
type layerDef struct {
	name, unit, layer, moves string
}

// layerDefs lists every per-layer metric the traced run reports. A
// layer a workload does not exercise reads 0 on it (README.md says
// which workload does most and least work in each layer).
var layerDefs = func() []layerDef {
	const (
		trace   = "trace generation (internal/trace)"
		eng     = "scheme runners + caches (internal/engine and below)"
		setup   = "run set-up (engine.Arena, engine.Run's machine)"
		facade  = "facade (plp)"
		harness = "memo, checkpoints, fan-out (internal/harness)"
		jobs    = "job service (internal/jobs)"
		tele    = "observers (internal/telemetry)"
		reg     = "results (internal/registry)"
		crash   = "crash + functional layer (internal/crash, core, recovery)"
		bench   = "benchmark"
	)
	defs := []layerDef{
		{"trace.gen_s", "s", trace, "sim_minstr_per_s on seed-sweep"},
		{"trace.ns_per_op", "ns", trace, "sim_minstr_per_s on seed-sweep"},
		{"trace.ops", "count", trace, "sim_minstr_per_s on seed-sweep"},
		{"trace.store_hit_rate", "frac", trace, "sim_minstr_per_s on job-service"},
		{"engine.run_s", "s", eng, "sim_minstr_per_s, cpu_ms_per_minstr on seed-sweep"},
	}
	for _, s := range engine.AllSchemes() {
		defs = append(defs, layerDef{"engine.ns_per_instr." + string(s), "ns", eng, "sim_minstr_per_s, cpu_ms_per_minstr on seed-sweep"})
	}
	return append(defs,
		layerDef{"engine.ns_per_persist", "ns", eng, "sim_minstr_per_s, cpu_ms_per_minstr on seed-sweep"},
		layerDef{"engine.persists", "count", eng, "none: simulated count, must repeat exactly"},
		layerDef{"engine.nvm_writes", "count", eng, "none: simulated count, must repeat exactly"},
		layerDef{"engine.bmt_node_updates", "count", eng, "none: simulated count, must repeat exactly"},
		layerDef{"engine.alloc_mb_per_run", "MB", setup, "op_ms_p50, peak_rss_mb on design-space"},
		layerDef{"engine.gc_cycles", "count", setup, "op_ms_p50, peak_rss_mb on design-space"},
		layerDef{"plp.new_session_ms", "ms", facade, "op_ms_p50 on design-space"},
		layerDef{"harness.memo_hit_rate", "frac", harness, "op_ms_p50, sim_minstr_per_s on job-service"},
		layerDef{"harness.ckpt_hit_rate", "frac", harness, "op_ms_p50, sim_minstr_per_s on job-service"},
		layerDef{"harness.memo_evictions", "count", harness, "op_ms_p50, sim_minstr_per_s on job-service"},
		layerDef{"harness.pool_max_running", "count", harness, "op_ms_p50, sim_minstr_per_s on job-service"},
		layerDef{"jobs.queue_ms_p50", "ms", jobs, "op_ms_tail on job-service"},
		layerDef{"jobs.queue_ms_tail", "ms", jobs, "op_ms_tail on job-service"},
		layerDef{"jobs.run_ms_p50.sweep", "ms", jobs, "op_ms_tail on job-service"},
		layerDef{"jobs.run_ms_p50.crash", "ms", jobs, "op_ms_tail on job-service"},
		layerDef{"jobs.extra_attempts", "count", jobs, "op_ms_tail on job-service"},
		layerDef{"jobs.failed", "count", jobs, "op_ms_tail on job-service"},
		layerDef{"telemetry.windows_per_run", "count", tele, "op_ms_p50 on job-service"},
		layerDef{"registry.marshal_ms", "ms", reg, "op_ms_p50 on job-service"},
		layerDef{"registry.result_kb", "KB", reg, "op_ms_p50 on job-service"},
		layerDef{"crash.points_per_s", "1/s", crash, "op_ms_tail on job-service"},
		layerDef{"crash.points", "count", crash, "op_ms_tail on job-service"},
		layerDef{"crash.failures", "count", crash, "op_ms_tail on job-service"},
		layerDef{"coverage.uncovered_frac", "frac", bench, "none: share of op time outside every layer span"},
		layerDef{"tracing.overhead_frac", "frac", bench, "none: traced per-op time against untraced"},
	)
}()

// layerSpans are the spans that cover an op's time layer by layer:
// generation + engine (+ session construction) for the engine
// workloads, queue + run + marshal for the job service.
var layerSpans = []string{
	"trace.MaterializeBatch", "engine.RunSource", "plp.NewSession",
	"jobs.queue", "jobs.run", "registry.MarshalJobResult",
}

// layerMetrics derives the span-based per-layer metrics. The simulated
// engine counts sum over the ops with k < prefix only, a fixed prefix
// of each client's deterministic op sequence, so they repeat exactly.
func layerMetrics(spans []span, prefix int) map[string]float64 {
	g := byName(spans)
	v := make(map[string]float64)

	gen := g["trace.MaterializeBatch"]
	genS := totalDur(gen).Seconds()
	ops := attrSum(gen, "ops")
	v["trace.gen_s"] = genS
	v["trace.ops"] = ops
	v["trace.ns_per_op"] = ratio(genS*1e9, ops)

	runs := g["engine.RunSource"]
	runS := totalDur(runs).Seconds()
	v["engine.run_s"] = runS
	for _, s := range engine.AllSchemes() {
		var ns, instr float64
		for _, r := range runs {
			if r.Label == string(s) {
				ns += float64(r.dur().Nanoseconds())
				instr += r.Attrs["instr"]
			}
		}
		v["engine.ns_per_instr."+string(s)] = ratio(ns, instr)
	}
	v["engine.ns_per_persist"] = ratio(runS*1e9, attrSum(runs, "persists"))
	v["engine.alloc_mb_per_run"] = ratio(attrSum(runs, "alloc_bytes")/(1<<20), float64(len(runs)))

	sess := g["plp.NewSession"]
	v["plp.new_session_ms"] = ratio(totalDur(sess).Seconds()*1e3, float64(len(sess)))

	queue := g["jobs.queue"]
	v["jobs.queue_ms_p50"] = median(msList(queue))
	if t, _ := tailOf(msList(queue)); t.N > 0 {
		v["jobs.queue_ms_tail"] = t.Value
	}
	var sweepRuns, crashRuns []span
	for _, r := range g["jobs.run"] {
		v["jobs.extra_attempts"] += max(r.Attrs["attempts"]-1, 0)
		v["jobs.failed"] += r.Attrs["failed"]
		if r.Label == "crash" {
			crashRuns = append(crashRuns, r)
		} else {
			sweepRuns = append(sweepRuns, r)
		}
	}
	v["jobs.run_ms_p50.sweep"] = median(msList(sweepRuns))
	v["jobs.run_ms_p50.crash"] = median(msList(crashRuns))
	v["telemetry.windows_per_run"] = ratio(attrSum(sweepRuns, "windows"), attrSum(sweepRuns, "runs"))
	points := attrSum(crashRuns, "points")
	v["crash.points"] = points
	v["crash.failures"] = attrSum(crashRuns, "violations")
	v["crash.points_per_s"] = ratio(points, totalDur(crashRuns).Seconds())

	marshal := g["registry.MarshalJobResult"]
	v["registry.marshal_ms"] = ratio(totalDur(marshal).Seconds()*1e3, float64(len(marshal)))
	v["registry.result_kb"] = ratio(attrSum(marshal, "bytes")/1024, float64(len(marshal)))

	// Denominators over the fixed op prefix.
	inPrefix := make(map[int]bool)
	var opTime, covered float64
	for _, s := range g["op"] {
		if int(s.Attrs["k"]) < prefix {
			inPrefix[s.ID] = true
		}
		opTime += s.dur().Seconds()
	}
	for _, name := range layerSpans {
		covered += totalDur(g[name]).Seconds()
	}
	v["coverage.uncovered_frac"] = ratio(opTime-covered, opTime)
	for _, s := range append(runs, g["jobs.run"]...) {
		if inPrefix[s.Op] {
			v["engine.persists"] += s.Attrs["persists"]
			v["engine.nvm_writes"] += s.Attrs["nvm_writes"]
			v["engine.bmt_node_updates"] += s.Attrs["bmt_node_updates"]
		}
	}
	return v
}

// printLayers prints each per-layer metric with the layer it measures
// and the end-to-end metric and workload it should move.
func printLayers(workload string, m map[string]metric) {
	fmt.Printf("per-layer metrics on %s (metric, value, unit, layer -> should move):\n", workload)
	for _, d := range layerDefs {
		fmt.Printf("  %-32s %14.4f %-6s %s -> %s\n", d.name, m[d.name].Value, d.unit, d.layer, d.moves)
	}
}
