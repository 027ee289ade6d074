package main

import (
	"strings"

	"spatialrepart/internal/obs"
)

// obsWindow holds registry snapshots taken at the start of a measured phase,
// so the phase reports only what happened inside it even though the
// observers were attached at set-up.
type obsWindow struct {
	regs   []*obs.Registry
	before []obs.Snapshot
}

func startObsWindow(observers ...*obs.Observer) *obsWindow {
	w := &obsWindow{}
	for _, o := range observers {
		if o == nil {
			continue
		}
		w.regs = append(w.regs, o.Registry())
		w.before = append(w.before, o.Registry().Snapshot())
	}
	return w
}

// delta is the phase's change in the registries, summed over observers.
type delta struct {
	counters map[string]int64
	histN    map[string]int64
	histSum  map[string]float64
}

func (w *obsWindow) finish() delta {
	d := delta{counters: map[string]int64{}, histN: map[string]int64{}, histSum: map[string]float64{}}
	for i, r := range w.regs {
		after := r.Snapshot()
		for name, v := range after.Counters {
			d.counters[name] += v - w.before[i].Counters[name]
		}
		for name, h := range after.Histograms {
			b := w.before[i].Histograms[name]
			d.histN[name] += h.Count - b.Count
			d.histSum[name] += h.Sum - b.Sum
		}
	}
	return d
}

// counter sums the counters named name, with or without labels.
func (d delta) counter(name string) int64 {
	n := int64(0)
	for k, v := range d.counters {
		if k == name || strings.HasPrefix(k, name+":") {
			n += v
		}
	}
	return n
}

// coreLayers reports the phase's full re-partitionings from the core spans
// the stream's observer recorded: time per run, phase busy time per run and
// rung evaluations per run.
func (d delta) coreLayers(m map[string]float64) {
	runs := d.histN["span.repart.run"]
	if runs == 0 {
		return
	}
	per := func(name string) float64 { return d.histSum["span."+name] / float64(runs) / 1e9 }
	m["core.repartition_s"] = per("repart.run")
	m["core.varfield_s"] = per("varfield.build")
	m["core.extract_s"] = per("rung.extract")
	m["core.allocate_s"] = per("rung.allocate")
	m["core.loss_s"] = per("rung.loss")
	m["core.rung_evals"] = float64(d.histN["span.rung.eval"]) / float64(runs)
}
