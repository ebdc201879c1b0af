package main

import (
	"mbplib/internal/bench"
	"mbplib/internal/obs"
	"mbplib/internal/sbbt"
)

// metricDef is one per-layer metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// perLayerMetrics lists every per-layer metric in output order. Each
// workload prints all of them; a layer the workload does not run reads 0.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"compress.decode_s", "s", "lower"},
		{"compress.decode_ns_per_byte", "ns/B", "lower"},
		{"sbbt.decode_ns_per_branch", "ns/branch", "lower"},
	}
	for _, p := range bench.TableIIIPredictors {
		defs = append(defs, metricDef{"predictors." + predictorLabel(p.Spec) + ".ns_per_branch", "ns/branch", "lower"})
	}
	return append(defs,
		metricDef{"predictors.scalar_frac", "fraction", "lower"},
		metricDef{"sim.account_ns_per_branch", "ns/branch", "lower"},
		metricDef{"sim.prefetch_wait_s", "s", "lower"},
		metricDef{"tracecache.hit_ratio", "fraction", "higher"},
		metricDef{"tracecache.misses", "count", "lower"},
		metricDef{"tracecache.wait_s", "s", "lower"},
		metricDef{"tracecache.bytes", "B", "lower"},
		metricDef{"sched.worker_util", "fraction", "higher"},
		metricDef{"sched.tail_s", "s", "lower"},
		metricDef{"journal.append_ms", "ms", "lower"},
		metricDef{"journal.appends", "count", "lower"},
		metricDef{"daemon.submit_ms", "ms", "lower"},
		metricDef{"daemon.queue_wait_ms", "ms", "lower"},
		metricDef{"daemon.run_ms", "ms", "lower"},
		metricDef{"daemon.result_ms", "ms", "lower"},
		metricDef{"daemon.resolve_ms", "ms", "lower"},
		metricDef{"cbp5.ns_per_branch", "ns/branch", "lower"},
		metricDef{"setup.tracegen_s", "s", "lower"},
		metricDef{"setup.compress_s", "s", "lower"},
		metricDef{"trace.overhead_frac", "fraction", "lower"},
		metricDef{"layers.cover_frac", "fraction", "higher"},
	)
}

// sweepObs sums the public obs.Collector snapshots of every sweep a phase
// ran, one collector per sweep so each snapshot's wall clock is that
// sweep's.
type sweepObs struct {
	wallS, busyS      float64 // summed sweep wall time; summed worker busy time
	workers           int
	sweeps            int
	hits, misses      float64
	bytes             float64 // largest resident cache size seen
	cacheWaitS        float64
	prefetchS         float64
	tailS             float64 // summed over sweeps
	cellEnds          []float64
	lastCellEndsIndex int
}

// add folds one sweep's snapshot in. l supplies the cell end times the
// predictor wrappers recorded during this sweep.
func (a *sweepObs) add(s obs.Snapshot, l *layers) {
	a.sweeps++
	a.wallS += s.WallSeconds
	if len(s.Workers) > a.workers {
		a.workers = len(s.Workers)
	}
	for _, w := range s.Workers {
		a.busyS += w.BusySeconds
	}
	a.hits += float64(s.Counters[obs.CtrCacheHits.String()])
	a.misses += float64(s.Counters[obs.CtrCacheMisses.String()])
	if b := float64(s.Counters[obs.CtrCacheBytes.String()]); b > a.bytes {
		a.bytes = b
	}
	a.cacheWaitS += s.Stages["cache_wait"].Seconds
	a.prefetchS += s.Stages["prefetch_stall"].Seconds
	l.mu.Lock()
	ends := append([]float64(nil), l.cellEnds[a.lastCellEndsIndex:]...)
	a.lastCellEndsIndex = len(l.cellEnds)
	l.mu.Unlock()
	a.tailS += tailSeconds(ends, len(s.Workers))
}

// schedLayers writes the cache and scheduler metrics of the sweeps a.
func (a *sweepObs) schedLayers(m map[string]float64) {
	m["tracecache.hit_ratio"] = ratio(a.hits, a.hits+a.misses)
	m["tracecache.misses"] = a.misses
	m["tracecache.wait_s"] = a.cacheWaitS
	m["tracecache.bytes"] = a.bytes
	m["sched.worker_util"] = ratio(a.busyS, a.wallS*float64(a.workers))
	m["sched.tail_s"] = ratio(a.tailS, float64(a.sweeps))
}

// simLayers writes the decode, predictor and accounting metrics. consumerS
// is the consumer time the breakdown must explain; waitS is the part of it
// spent blocked on the prefetcher or the cache. When decodeOnConsumer is
// set, trace decode ran on the consuming goroutine (sweep cache loads) and
// is part of consumerS; otherwise it ran on the prefetch goroutine.
func simLayers(l *layers, consumerS, waitS float64, decodeOnConsumer bool, m map[string]float64) {
	compressNs := float64(l.compressNs.Load())
	chunkNs := float64(l.chunkNs.Load())
	// On the chunk path decompression and packet decode are one call
	// (DecodeChunk); it counts as container decode here.
	m["compress.decode_s"] = (compressNs + chunkNs) / 1e9
	m["compress.decode_ns_per_byte"] = ratio(compressNs+chunkNs,
		float64(l.compressBytes.Load())+float64(l.chunkEvents.Load())*sbbt.PacketSize)
	sbbtNs := float64(l.sbbtNs.Load())
	m["sbbt.decode_ns_per_branch"] = ratio(sbbtNs, float64(l.sbbtEvents.Load()))

	var predS, events, kernelScalar, kernelAll float64
	l.mu.Lock()
	for label, st := range l.preds {
		ev := float64(st.events())
		m["predictors."+label+".ns_per_branch"] = ratio(st.seconds()*1e9, ev)
		predS += st.seconds()
		events += ev
		if st.kernel {
			kernelScalar += float64(st.scalarEvents.Load())
			kernelAll += ev
		}
	}
	l.mu.Unlock()
	m["predictors.scalar_frac"] = ratio(kernelScalar, kernelAll)
	decodeS := 0.0
	if decodeOnConsumer {
		decodeS = (compressNs + sbbtNs + chunkNs) / 1e9
	}
	m["sim.account_ns_per_branch"] = ratio((consumerS-predS-waitS-decodeS)*1e9, events)
}
