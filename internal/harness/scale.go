package harness

import (
	"fmt"
	"runtime"
	"time"

	"misar/internal/cpu"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/sim"
	"misar/internal/stats"
	"misar/internal/syncrt"
)

// ScaleShards are the shard counts the scale sweep attempts at every
// machine size. Counts the mesh cannot host (the shard count must divide
// the mesh height into row bands) are skipped silently.
var ScaleShards = []int{1, 2, 4, 8}

// scalePhases is the number of barrier phases every tile executes in the
// scale workload.
const scalePhases = 3

// scaleDeadline bounds one scale run; the workload is a few barrier phases,
// so hitting this means the machine hung, not that the budget was tight.
const scaleDeadline sim.Time = 1 << 40

// ScaleSweep measures the conservative parallel kernel at machine scales
// the paper's serial evaluation never reaches (the CLI runs it with
// `-fig scale -tiles 256,1024`). Every tile runs scalePhases rounds of
// skewed local compute followed by the combining-tree software barrier —
// the baseline built for large goals, with bounded fan-in at every counter
// — so the workload is meaningful at 1024 participants and exercises the
// coherence, NoC, and sync layers across every shard boundary.
//
// Unlike the figure experiments this sweep reports HOST wall-clock, which
// is inherently nondeterministic, so it has no golden and no memoization:
// each (tiles, shards) point is simulated directly and its wall time,
// speedup versus the serial kernel at the same scale, simulated end cycle
// and event count are tabulated. Both kernels order events by the same
// canonical key, so a sharded point must end at the serial end cycle after
// the same number of events; any difference is a kernel bug and fails the
// sweep.
func ScaleSweep(o Options) (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Scale: %d-phase tree-barrier workload, wall-clock by shard count (GOMAXPROCS=%d)",
			scalePhases, runtime.GOMAXPROCS(0)),
		"Wall ms", "Speedup", "KCycles", "KEvents")
	for _, tiles := range o.Tiles {
		var serialWall time.Duration
		var serialEnd sim.Time
		var serialFired uint64
		for _, shards := range ScaleShards {
			end, fired, wall, ok, err := scalePoint(tiles, shards)
			if err != nil {
				return nil, fmt.Errorf("harness: scale %dc/%d shards: %w", tiles, shards, err)
			}
			if !ok {
				continue
			}
			if shards == 1 {
				serialWall, serialEnd, serialFired = wall, end, fired
			} else if end != serialEnd || fired != serialFired {
				return nil, fmt.Errorf("harness: scale %dc/%d shards ended at cycle %d after %d events; the serial kernel ended at %d after %d",
					tiles, shards, end, fired, serialEnd, serialFired)
			}
			t.AddRow(fmt.Sprintf("%dc/k%d", tiles, shards),
				float64(wall.Milliseconds()),
				float64(serialWall)/float64(max(wall, 1)),
				float64(end)/1e3,
				float64(fired)/1e3)
		}
	}
	return t, nil
}

// scalePoint runs one (tiles, shards) workload and returns the end cycle,
// total fired events, and wall time. ok is false when the shard count does
// not fit the mesh.
func scalePoint(tiles, shards int) (end sim.Time, fired uint64, wall time.Duration, ok bool, err error) {
	cfg := machine.MSAOMU(tiles, 2)
	cfg.Shards = shards
	if machine.Validate(cfg) != nil {
		return 0, 0, 0, false, nil
	}
	m := machine.New(cfg)
	arena := syncrt.NewArena(0x2000000)
	bar := arena.Barrier(tiles)
	qnodes := make([]memory.Addr, tiles)
	for i := range qnodes {
		qnodes[i] = arena.QNode()
	}
	lib := syncrt.MCSTreeLib()
	m.SpawnAll(tiles, func(tid int, e cpu.Env) {
		rt := lib.Bind(e, qnodes[tid])
		for p := 0; p < scalePhases; p++ {
			e.Compute(uint64(100 + (tid*13+p*7)%97))
			rt.Wait(bar)
		}
	})
	start := time.Now()
	end, err = m.Run(scaleDeadline)
	wall = time.Since(start)
	if err != nil {
		return 0, 0, 0, true, err
	}
	if m.Group != nil {
		fired = m.Group.Fired()
	} else {
		fired = m.Engine.Fired()
	}
	return end, fired, wall, true, nil
}
