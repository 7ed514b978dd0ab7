package machine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"misar/internal/cpu"
	"misar/internal/isa"
	"misar/internal/memory"
)

// TestFailedRunLeaksNoThreads: every error return of Run tears down the
// threads it leaves unfinished, on the serial and the sharded kernel. Thread
// 0 takes a hardware lock and then returns or panics; every other thread
// then blocks on that lock forever, so the run ends as a deadlock or as a
// thread panic with 15 threads still blocked.
func TestFailedRunLeaksNoThreads(t *testing.T) {
	const tiles = 16
	lock := memory.Addr(0x100000)
	for _, shards := range []int{0, 2} {
		for _, tc := range []struct {
			name  string
			panic bool
			want  string
		}{
			{"deadlock", false, "deadlock"},
			{"thread-panic", true, "thread 0 panicked"},
		} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				before := runtime.NumGoroutine()
				m := New(shardedConfig(tiles, shards))
				m.SpawnAll(tiles, func(tid int, e cpu.Env) {
					if tid != 0 {
						e.Compute(100)
					}
					if r := e.Sync(isa.OpLock, lock, 0, 0); r != isa.Success {
						t.Errorf("thread %d: LOCK = %v, want SUCCESS or a block", tid, r)
					}
					if tid == 0 && tc.panic {
						panic("workload bug")
					}
				})
				_, err := m.Run(deadline)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want it to mention %q", err, tc.want)
				}
				var le *LivenessError
				if !tc.panic && (!errors.As(err, &le) || le.Diag == nil || len(le.Flight) == 0) {
					t.Errorf("deadlock error %T lacks its diagnosis or flight dump", err)
				}
				waitGoroutines(t, before)
			})
		}
	}
}
