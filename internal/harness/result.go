package harness

import (
	"context"
	"encoding/json"
	"fmt"

	"misar/internal/machine"
	"misar/internal/metrics"
	"misar/internal/sim"
	"misar/internal/store"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

// ResultSchema versions the serialized Result layout. Bump it whenever a
// field changes meaning; old store records with a different schema are
// treated as misses (and re-simulated), never misread.
const ResultSchema = 1

// Result is the serializable outcome of one successful simulation — exactly
// the facts the figures, tables, and the serving layer consume, and nothing
// that cannot round-trip through JSON. Cycles, Coverage, and the metrics
// Report marshal deterministically and decode to the same float64 bits
// (encoding/json round-trips float64 exactly), so a table rendered from a
// store-warm Result is byte-identical to the cold run's.
type Result struct {
	Schema   int                   `json:"schema"`
	Kind     string                `json:"kind"` // "app" or "micro"
	Label    string                `json:"label"`
	Cycles   uint64                `json:"cycles,omitempty"`
	Coverage float64               `json:"coverage,omitempty"`
	Micro    *workload.MicroResult `json:"micro,omitempty"`
	Report   *metrics.Report       `json:"report,omitempty"`
}

// Result blocks until the run completes and returns its serializable
// outcome, whether the run executed, was memo-shared, or was replayed from
// the persistent store.
func (r *Run) Result() (*Result, error) {
	<-r.done
	if r.err != nil {
		return nil, r.err
	}
	return r.buildResult(), nil
}

// buildResult assembles the serializable view of a finished (or executing,
// on the worker goroutine itself) successful run.
func (r *Run) buildResult() *Result {
	res := &Result{Schema: ResultSchema, Kind: r.kind, Label: r.label}
	switch r.kind {
	case "micro":
		// The micro's report is carried inside MicroResult; duplicating it
		// at the top level would double every metered record on disk.
		mc := r.micro
		res.Micro = &mc
	default:
		res.Cycles = uint64(r.cycles)
		res.Coverage = r.coverage
		res.Report = r.report
	}
	return res
}

// FromStore reports whether this run was satisfied by the persistent store
// (no simulation executed). Valid after the run completes.
func (r *Run) FromStore() bool {
	<-r.done
	return r.fromStore
}

// applyResult populates a Run future from a decoded store record, the
// inverse of Result.
func (r *Run) applyResult(res *Result) {
	switch res.Kind {
	case "micro":
		if res.Micro != nil {
			r.micro = *res.Micro
			r.report = res.Micro.Report
		}
	default:
		r.cycles = sim.Time(res.Cycles)
		r.coverage = res.Coverage
		r.report = res.Report
	}
}

// storeKey builds the canonical cross-process identity of one simulation.
// Unlike the in-memory runKey (a %+v fingerprint that only needs to be
// stable within one process), the store key must survive process restarts
// and version skew, so the config goes through its canonical JSON encoding.
// The cycle budget is part of the identity: a run that succeeded under a
// tight chaos budget is not the same experiment as one under RunDeadline.
// An unmarshalable config (impossible today; Config is a pure value struct)
// returns "" and the run simply bypasses the store.
func storeKey(kind string, cfg machine.Config, lib *syncrt.Lib, budget sim.Time) string {
	cb, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("misar-run/v%d\n%s\n%s\n%+v\n%d", ResultSchema, kind, cb, *lib, budget)
}

// tryStore attempts to satisfy run from the persistent store. Records that
// fail to decode or carry the wrong schema/kind are ignored (the next Put
// overwrites them); store-level corruption is already evicted by Get.
func (r *Runner) tryStore(ctx context.Context, st *store.Store, skey string, run *Run) bool {
	blob, ok := st.GetCtx(ctx, store.Fingerprint(skey))
	if !ok {
		return false
	}
	var res Result
	if err := json.Unmarshal(blob, &res); err != nil || res.Schema != ResultSchema || res.Kind != run.kind {
		return false
	}
	run.applyResult(&res)
	run.fromStore = true
	return true
}

// putStore persists a successful run. Store write failures (disk full,
// permissions) are deliberately non-fatal: the result is still served from
// memory; only warmth is lost.
func (r *Runner) putStore(st *store.Store, skey string, run *Run) {
	blob, err := json.Marshal(run.buildResult())
	if err != nil {
		return
	}
	st.Put(store.Fingerprint(skey), blob)
}
