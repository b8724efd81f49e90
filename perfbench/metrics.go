package main

import (
	"math"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"sweep_makespan_s", "s"},
	{"job_turnaround_p50_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is the traced run's ledger, named after the modules.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gpu.new_s", "s"},
		{"gpu.new_warm_s", "s"},
		{"trace.decode_s", "s"},
		{"trace.bytes", "bytes"},
		{"workload.build_s", "s"},
		{"core.loop_self_s", "s"},
		{"core.loop_ns_per_cycle", "ns"},
		{"core.cycles", "cycles"},
		{"core.ledger_residual_ratio", "ratio"},
	}
	for _, f := range families {
		if f != "MemoryController" {
			defs = append(defs, metricDef{"gpu." + f + ".clock_s", "s"})
		}
	}
	defs = append(defs, metricDef{"mem.MemoryController.clock_s", "s"})
	for _, c := range caches {
		defs = append(defs,
			metricDef{"mem." + c + ".hit_ratio", "ratio"},
			metricDef{"mem." + c + ".accesses", "count"},
		)
	}
	return append(defs,
		metricDef{"mem.MC.read_bytes", "bytes"},
		metricDef{"mem.MC.write_bytes", "bytes"},
		metricDef{"mem.MC.busy_cycles", "cycles"},
		metricDef{"gpu.Shader.ns_per_instruction", "ns"},
		metricDef{"gpu.Shader.instructions", "count"},
		metricDef{"gpu.TextureUnit.ns_per_texel", "ns"},
		metricDef{"gpu.TextureUnit.texels", "count"},
		metricDef{"gpu.ZStencil.ns_per_quad", "ns"},
		metricDef{"gpu.ZStencil.quads", "count"},
		metricDef{"chkpt.capture_s", "s"},
		metricDef{"chkpt.write_s", "s"},
		metricDef{"chkpt.read_s", "s"},
		metricDef{"chkpt.restore_s", "s"},
		metricDef{"chkpt.bytes", "bytes"},
		metricDef{"jobd.preemptions", "count"},
		metricDef{"jobd.attempts", "count"},
		metricDef{"jobd.queue_wait_p50_s", "s"},
		metricDef{"refrender.render_s", "s"},
		metricDef{"host.allocs_per_kcycle", "allocs/kcycle"},
		metricDef{"host.gc_pause_s", "s"},
		metricDef{"trace_overhead_ratio", "ratio"},
	)
}()

// caches are the simulated cache families, named by their statistics.
var caches = []string{"TexCache", "ZCache", "ColorCache"}

// kernels are the emulator kernels inside boxes, measured as the box
// family's clock time per unit of work it counted; the count is
// reported too, as the ratio's base.
var kernels = []struct{ family, stat, metric string }{
	{"Shader", "instructions", "ns_per_instruction"},
	{"TextureUnit", "texels", "ns_per_texel"},
	{"ZStencil", "quads", "ns_per_quad"},
}

// statSum adds a statistic over every instance of a box family
// ("Shader3.instructions").
func statSum(stats map[string]float64, family, stat string) float64 {
	sum := 0.0
	for k, v := range stats {
		f, s, ok := strings.Cut(k, ".")
		if ok && s == stat && familyOf(f) == family {
			sum += v
		}
	}
	return sum
}

// layerMetrics derives the ledger metrics shared by every workload
// from the untraced (plain) and traced repetitions: medians over the
// traced ones, host runtime numbers from the untraced ones, and the
// tracing overhead from both.
func layerMetrics(plain, traced []rep) map[string]float64 {
	m := map[string]float64{}
	layer := func(f func(*layerReport) float64) float64 {
		return med(traced, func(r rep) float64 { return f(r.res.Layer) })
	}
	m["gpu.new_warm_s"] = med(traced, func(r rep) float64 { return median(r.res.NewS[1:]) })
	m["core.cycles"] = med(traced, func(r rep) float64 { return float64(r.res.Cycles) })
	m["core.loop_self_s"] = layer(func(l *layerReport) float64 { return l.LoopSelfS })
	m["core.loop_ns_per_cycle"] = 1e9 * m["core.loop_self_s"] / m["core.cycles"]
	m["core.ledger_residual_ratio"] = layer(func(l *layerReport) float64 { return math.Abs(l.ResidualS) / l.SimS })
	for _, f := range families {
		name := "gpu." + f + ".clock_s"
		if f == "MemoryController" {
			name = "mem.MemoryController.clock_s"
		}
		m[name] = layer(func(l *layerReport) float64 { return l.FamilyS[f] })
	}
	// Simulated statistics repeat exactly; any traced run has them.
	stats := traced[0].res.Stats
	for _, c := range caches {
		hits := statSum(stats, c, "hits")
		acc := hits + statSum(stats, c, "misses")
		m["mem."+c+".accesses"] = acc
		m["mem."+c+".hit_ratio"] = hits / math.Max(acc, 1)
	}
	m["mem.MC.read_bytes"] = stats["MC.readBytes"]
	m["mem.MC.write_bytes"] = stats["MC.writeBytes"]
	m["mem.MC.busy_cycles"] = stats["MC.busyCycles"]
	for _, k := range kernels {
		work := statSum(stats, k.family, k.stat)
		m["gpu."+k.family+"."+k.stat] = work
		m["gpu."+k.family+"."+k.metric] = 1e9 * m["gpu."+k.family+".clock_s"] / math.Max(work, 1)
	}
	ckpt := func(f func(ckptReport) float64) float64 {
		var xs []float64
		for _, r := range traced {
			for _, c := range r.res.Ckpt {
				xs = append(xs, f(c))
			}
		}
		return median(xs)
	}
	m["chkpt.capture_s"] = ckpt(func(c ckptReport) float64 { return c.CaptureS })
	m["chkpt.write_s"] = ckpt(func(c ckptReport) float64 { return c.WriteS })
	m["chkpt.read_s"] = ckpt(func(c ckptReport) float64 { return c.ReadS })
	m["chkpt.restore_s"] = ckpt(func(c ckptReport) float64 { return c.RestoreS })
	m["chkpt.bytes"] = ckpt(func(c ckptReport) float64 { return float64(c.Bytes) })
	m["host.allocs_per_kcycle"] = med(plain, func(r rep) float64 { return 1000 * float64(r.res.Allocs) / float64(r.res.Cycles) })
	m["host.gc_pause_s"] = med(plain, func(r rep) float64 { return r.res.GCPauseS })
	m["trace_overhead_ratio"] = med(traced, func(r rep) float64 { return r.res.SimS }) /
		med(plain, func(r rep) float64 { return r.res.SimS })
	return m
}
