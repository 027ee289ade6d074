package main

import "time"

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit, better string }

// perLayerMetrics lists every metric a traced run reports, in BENCHMARK.json
// order. A workload reports 0 for a layer it does not exercise. README.md
// gives, for each, the end-to-end metric and workload it should move.
var perLayerMetrics = []layerMetric{
	{"grid.read_s", "s", "lower"},
	{"grid.write_s", "s", "lower"},
	{"core.repartition_s", "s", "lower"},
	{"core.varfield_s", "s", "lower"},
	{"core.extract_s", "s", "lower"},
	{"core.allocate_s", "s", "lower"},
	{"core.loss_s", "s", "lower"},
	{"core.rung_evals", "count", "lower"},
	{"core.useful_ratio", "ratio", "higher"},
	{"core.reconstruct_s", "s", "lower"},
	{"core.workers1_s", "s", "lower"},
	{"core.speedup", "x", "higher"},
	{"stream.current_p50_ms", "ms", "lower"},
	{"stream.current_p99_ms", "ms", "lower"},
	{"stream.current_busy_s", "s", "lower"},
	{"stream.refreshes", "count", "lower"},
	{"stream.recomputes", "count", "lower"},
	{"stream.refresh_ratio", "ratio", "higher"},
	{"stream.add_p50_ms", "ms", "lower"},
	{"stream.add_p99_ms", "ms", "lower"},
	{"stream.add_busy_s", "s", "lower"},
	{"wal.appends", "count", "higher"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.fsync_busy_s", "s", "lower"},
	{"wal.records_per_fsync", "ratio", "higher"},
	{"server.point.handler_p50_ms", "ms", "lower"},
	{"server.point.handler_p99_ms", "ms", "lower"},
	{"server.point.self_ms", "ms", "lower"},
	{"server.point.bytes", "bytes", "lower"},
	{"server.summary.handler_p50_ms", "ms", "lower"},
	{"server.summary.handler_p99_ms", "ms", "lower"},
	{"server.summary.self_ms", "ms", "lower"},
	{"server.summary.bytes", "bytes", "lower"},
	{"server.view.handler_p50_ms", "ms", "lower"},
	{"server.view.handler_p99_ms", "ms", "lower"},
	{"server.view.self_ms", "ms", "lower"},
	{"server.view.bytes", "bytes", "lower"},
	{"server.non200", "count", "lower"},
	{"cluster.point.handler_p50_ms", "ms", "lower"},
	{"cluster.point.self_ms", "ms", "lower"},
	{"cluster.point.shard_bytes", "bytes", "lower"},
	{"cluster.summary.handler_p50_ms", "ms", "lower"},
	{"cluster.summary.self_ms", "ms", "lower"},
	{"cluster.summary.shard_bytes", "bytes", "lower"},
	{"cluster.view.handler_p50_ms", "ms", "lower"},
	{"cluster.view.self_ms", "ms", "lower"},
	{"cluster.view.shard_bytes", "bytes", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"load.late_p99_ms", "ms", "lower"},
	{"load.transport_ms", "ms", "lower"},
	{"load.attempted", "count", "higher"},
	{"load.failed", "count", "lower"},
	{"residual_ms", "ms", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// readLayers fills the per-layer metrics the traced reads of a serving
// workload yield: handler, self and byte figures per read class for the
// server and the coordinator, the stream.current distribution, transport
// time and the residual.
func readLayers(ops []op, m map[string]float64) {
	var current, transport, residual []float64
	for _, cn := range classNames {
		var handler, self, bytes, coord, coordSelf, shardBytes []float64
		for _, o := range ops {
			if o.root.class != cn {
				continue
			}
			var sb int64
			outer := int64(0)
			viaCoordinator := false
			for _, s := range o.spans {
				switch s.name {
				case spanServer:
					handler = append(handler, ms(s.dur()))
					bytes = append(bytes, float64(s.bytes))
					sb += s.bytes
				case spanCoordinator:
					coord = append(coord, ms(s.dur()))
					viaCoordinator = true
				}
				if s.parent == o.root.id && s.dur() > outer {
					outer = s.dur()
				}
			}
			self = append(self, ms(o.self["server"]))
			if viaCoordinator {
				coordSelf = append(coordSelf, ms(o.self["cluster"]))
				shardBytes = append(shardBytes, float64(sb))
			}
			transport = append(transport, ms(o.e2e-outer))
			residual = append(residual, ms(o.residual))
		}
		p := "server." + cn + "."
		m[p+"handler_p50_ms"] = median(handler)
		m[p+"handler_p99_ms"] = quantile(handler, 0.99)
		m[p+"self_ms"] = median(self)
		m[p+"bytes"] = median(bytes)
		if len(coord) > 0 {
			p = "cluster." + cn + "."
			m[p+"handler_p50_ms"] = median(coord)
			m[p+"self_ms"] = median(coordSelf)
			m[p+"shard_bytes"] = median(shardBytes)
		}
	}
	busy := 0.0
	for _, o := range ops {
		for _, s := range o.spans {
			switch {
			case s.name == spanCurrent:
				current = append(current, ms(s.dur()))
				busy += float64(s.dur()) / 1e9
			case s.name == spanServer && s.status != 200:
				m["server.non200"]++
			}
		}
	}
	m["stream.current_p50_ms"] = median(current)
	m["stream.current_p99_ms"] = quantile(current, 0.99)
	m["stream.current_busy_s"] = busy
	m["load.transport_ms"] = median(transport)
	m["residual_ms"] = mean(residual)
}
