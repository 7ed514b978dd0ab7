package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"misar/internal/harness"
	"misar/internal/machine"
	"misar/internal/obs"
	"misar/internal/store"
	"misar/internal/trace"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracer carries the span recorder of a traced repetition. Workloads open
// their own spans ("bench" lane) around calls into the program's public
// functions; the program adds its existing spans (sim.build, sim.run,
// queue.wait, store.lookup, the served job umbrella) through the same
// context. A nil *tracer is an untraced repetition: every method is a no-op.
type tracer struct {
	id  string
	rec *obs.Recorder
	ctx context.Context
	// extra holds spans recorded by in-process servers' own recorders.
	extra []trace.Span
	// obs is what the repetition observed below the span level.
	obs layerObs
}

func newTracer(id string) *tracer {
	rec := obs.NewRecorder(1 << 17)
	return &tracer{
		id:  id,
		rec: rec,
		ctx: obs.WithRecorder(obs.WithTrace(context.Background(), id), rec),
		obs: layerObs{clientLat: map[string]time.Duration{}},
	}
}

// span opens a benchmark span on the run's trace. Safe on nil.
func (t *tracer) span(name string) *obs.ActiveSpan {
	if t == nil {
		return nil
	}
	return obs.StartSpan(t.ctx, "bench", name)
}

// context returns the traced context, or Background when untraced.
func (t *tracer) context() context.Context {
	if t == nil {
		return context.Background()
	}
	return t.ctx
}

func (t *tracer) spans() []trace.Span {
	all := append(t.rec.Spans(), t.extra...)
	trace.SortSpans(all)
	return all
}

// layerObs is what a traced repetition read from the program's public
// Stats() accessors, next to its spans.
type layerObs struct {
	tot machineTotals
	// runNS is host time spent inside Machine.Run for machines the
	// benchmark drove itself; 0 means "take it from the sim.run spans".
	runNS int64
	// Sharded kernel coordination (scale1024's k2 run only).
	shardEvents, shardWindows, shardPosts uint64
	runner                                harness.RunnerStats
	store                                 store.Stats
	// clientLat is each served request's client-side latency by trace ID.
	clientLat map[string]time.Duration
	rejects   int
}

// machineTotals sums component counters over every machine of a run.
type machineTotals struct {
	machines                                    int
	events                                      uint64
	l1Loads, l1Stores, l1RMWs, l1Hits, l1Misses uint64
	syncIssued                                  uint64
	invSent, dirConflicts                       uint64
	dirMaxQueue                                 int
	nocMessages, nocFlits, nocHops, nocLatency  uint64
	msaHW, msaSW, omuSteers, capSteers, aborts  uint64
	tmCommits, tmAborts, tmRetries              uint64
}

func (t *machineTotals) add(m *machine.Machine) {
	t.machines++
	if m.Group != nil {
		t.events += m.Group.Fired()
	} else {
		t.events += m.Engine.Fired()
	}
	for i := range m.L1s {
		ls, ds := m.L1s[i].Stats(), m.Dirs[i].Stats()
		t.l1Loads += ls.Loads
		t.l1Stores += ls.Stores
		t.l1RMWs += ls.RMWs
		t.l1Hits += ls.Hits
		t.l1Misses += ls.Misses
		t.invSent += ds.InvSent
		t.dirConflicts += ds.Conflicts
		t.dirMaxQueue = max(t.dirMaxQueue, ds.MaxQueueDepth)
	}
	for _, c := range m.Cores {
		st := c.Stats()
		for _, v := range st.SyncIssued {
			t.syncIssued += v
		}
	}
	ns := m.Net.Stats()
	t.nocMessages += ns.Messages
	t.nocFlits += ns.Flits
	t.nocHops += ns.HopCount
	t.nocLatency += uint64(ns.TotalLatency)
	ms := m.MSAStats()
	t.msaHW += ms.HWOps()
	t.msaSW += ms.SWOps()
	t.omuSteers += ms.OMUSteers
	t.capSteers += ms.CapacitySteers
	t.aborts += ms.Aborts
	if m.Metrics != nil {
		c := m.Metrics.Snapshot().Counters
		t.tmCommits += c["tm.commits"]
		t.tmAborts += c["tm.aborts"]
		t.tmRetries += c["tm.retries"]
	}
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMS returns the durations (ms) of spans in lane proc whose name has
// the given prefix.
func spanMS(spans []trace.Span, proc, prefix string) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Proc == proc && strings.HasPrefix(sp.Name, prefix) {
			out = append(out, float64(sp.Dur)/1e3)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// layerMetrics turns one traced repetition into the per-layer metrics.
// Every metric is present on every workload; a layer the workload does not
// reach reports 0.
func layerMetrics(o layerObs, spans []trace.Span, pr probes, overheadPct float64) (map[string]metric, []string) {
	t := o.tot
	var notes []string
	if t.machines == 0 {
		notes = append(notes, "no simulated machine is readable from this workload (served jobs run inside the server): component counters read 0")
	}
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	simRun := spanMS(spans, "sim", "sim.run")
	runNS := float64(o.runNS)
	if runNS == 0 {
		runNS = sum(simRun) * 1e6
	}
	set("sim.events", float64(t.events), "count")
	set("sim.host_ns_per_event", ratio(runNS, float64(t.events)), "ns")
	set("sim.probe_ns_per_event", pr.nsPerEvent, "ns")
	set("sim.shard_windows", float64(o.shardWindows), "count")
	set("sim.events_per_window", ratio(float64(o.shardEvents), float64(o.shardWindows)), "count")
	set("sim.cross_shard_posts", float64(o.shardPosts), "count")

	threadOps := float64(t.l1Loads + t.l1Stores + t.l1RMWs + t.syncIssued)
	set("cpu.thread_ops", threadOps, "count")
	set("cpu.events_per_thread_op", ratio(float64(t.events), threadOps), "count")
	set("cpu.probe_ns_per_switch", pr.nsPerSwitch, "ns")

	build := spanMS(spans, "sim", "sim.build")
	build = append(build, spanMS(spans, "bench", "machine.build")...)
	set("machine.build_ms_p50", median(build), "ms")
	set("machine.build_ms_total", sum(build), "ms")

	l1 := float64(t.l1Loads + t.l1Stores + t.l1RMWs)
	set("coherence.l1_accesses", l1, "count")
	set("coherence.l1_miss_ratio", ratio(float64(t.l1Misses), float64(t.l1Hits+t.l1Misses)), "ratio")
	set("coherence.inv_sent", float64(t.invSent), "count")
	set("coherence.dir_conflicts", float64(t.dirConflicts), "count")
	set("coherence.dir_max_queue", float64(t.dirMaxQueue), "count")

	set("noc.messages", float64(t.nocMessages), "count")
	set("noc.flits", float64(t.nocFlits), "count")
	set("noc.avg_hops", ratio(float64(t.nocHops), float64(t.nocMessages)), "hops")
	set("noc.avg_latency_cycles", ratio(float64(t.nocLatency), float64(t.nocMessages)), "cycles")
	set("noc.probe_ns_per_flit", pr.nsPerFlit, "ns")

	set("msa.hw_ops", float64(t.msaHW), "count")
	set("msa.sw_ops", float64(t.msaSW), "count")
	set("msa.hw_share", ratio(float64(t.msaHW), float64(t.msaHW+t.msaSW)), "ratio")
	set("msa.omu_steers", float64(t.omuSteers), "count")
	set("msa.capacity_steers", float64(t.capSteers), "count")
	set("msa.aborts", float64(t.aborts), "count")

	set("tm.commits", float64(t.tmCommits), "count")
	set("tm.aborts", float64(t.tmAborts), "count")
	set("tm.retries", float64(t.tmRetries), "count")
	set("tm.commit_ratio", ratio(float64(t.tmCommits), float64(t.tmCommits+t.tmAborts)), "ratio")

	set("harness.submitted", float64(o.runner.Submitted), "count")
	set("harness.unique", float64(o.runner.Unique), "count")
	set("harness.memo_hits", float64(o.runner.Submitted-o.runner.Unique), "count")
	set("harness.sim_ms_p50", median(simRun), "ms")
	tp, tv, ok := tail(simRun)
	set("harness.sim_ms_tail", tv, "ms")
	switch {
	case ok:
		notes = append(notes, fmt.Sprintf("harness.sim_ms_tail is p%g of %d sim.run spans", tp, len(simRun)))
	case len(simRun) > 0:
		notes = append(notes, fmt.Sprintf("harness.sim_ms_tail: %d sim.run spans are too few for a tail; reported as 0", len(simRun)))
	}
	queue := spanMS(spans, "harness", "queue.wait")
	set("harness.queue_wait_ms", median(queue), "ms")

	set("store.lookup_ms_p50", median(spanMS(spans, "harness", "store.lookup")), "ms")
	set("store.hits", float64(o.store.Hits), "count")
	set("store.misses", float64(o.store.Misses), "count")
	set("store.puts", float64(o.store.Puts), "count")

	// Served requests: queue wait inside the server, and what the client
	// waited beyond the server's own umbrella span (HTTP, NDJSON, decode).
	var svcQueue, self []float64
	if len(o.clientLat) > 0 {
		served := map[string]int64{}
		for _, sp := range spans {
			if sp.Proc == "served" && strings.HasPrefix(sp.Name, "job ") {
				served[sp.Trace] = sp.Dur
			}
		}
		for id, lat := range o.clientLat {
			if d, ok := served[id]; ok {
				self = append(self, float64(lat.Microseconds()-d)/1e3)
			}
		}
		svcQueue = queue
	}
	set("service.queue_wait_ms_p50", median(svcQueue), "ms")
	set("service.self_ms_p50", median(self), "ms")
	set("service.rejects", float64(o.rejects), "count")

	set("obs.trace_overhead_pct", overheadPct, "%")
	return out, notes
}

// laneRank orders the span lanes from the outermost caller inwards; a span's
// self time excludes time covered by spans of inner lanes on the same trace.
var laneRank = map[string]int{"bench": 0, "client": 1, "served": 2, "harness": 3, "sim": 4}

// laneTime is the span count, total time and self time of one lane.
type laneTime struct {
	spans       int
	total, self float64 // ms
}

// selfTimes derives each lane's self time from the spans: a span's duration
// minus the union of the intervals of inner-lane spans on the same trace
// that lie inside it. Union, not sum, because inner spans run concurrently
// on the worker pool.
func selfTimes(spans []trace.Span) map[string]laneTime {
	byTrace := map[string][]trace.Span{}
	for _, sp := range spans {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	out := map[string]laneTime{}
	for _, group := range byTrace {
		for _, sp := range group {
			rank, ok := laneRank[sp.Proc]
			if !ok {
				rank = len(laneRank)
			}
			var inner [][2]int64
			end := sp.Start + sp.Dur
			for _, c := range group {
				cr, ok := laneRank[c.Proc]
				if !ok {
					cr = len(laneRank)
				}
				if cr > rank && c.Start >= sp.Start && c.Start+c.Dur <= end {
					inner = append(inner, [2]int64{c.Start, c.Start + c.Dur})
				}
			}
			lt := out[sp.Proc]
			lt.spans++
			lt.total += float64(sp.Dur) / 1e3
			lt.self += float64(sp.Dur-unionLen(inner)) / 1e3
			out[sp.Proc] = lt
		}
	}
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, curS, curE int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curE {
			if started {
				n += curE - curS
			}
			curS, curE, started = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if started {
		n += curE - curS
	}
	return n
}

// writeTrace writes the spans as a Chrome/Perfetto trace file.
func writeTrace(path string, spans []trace.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the per-lane self-time table.
func printSelfTimes(w io.Writer, lt map[string]laneTime) {
	lanes := make([]string, 0, len(lt))
	for l := range lt {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool { return laneRank[lanes[i]] < laneRank[lanes[j]] })
	fmt.Fprintf(w, "  %-8s %7s %12s %12s\n", "lane", "spans", "total ms", "self ms")
	for _, l := range lanes {
		x := lt[l]
		fmt.Fprintf(w, "  %-8s %7d %12.1f %12.1f\n", l, x.spans, x.total, x.self)
	}
}
