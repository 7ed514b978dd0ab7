// Package misar is a from-scratch reproduction of "MiSAR: Minimalistic
// Synchronization Accelerator with Resource Overflow Management" (Liang &
// Prvulovic, ISCA 2015) as a Go library.
//
// The package models a tiled many-core processor — cores with private L1
// caches, a distributed directory-coherent LLC, and a 2D-mesh NoC — extended
// with the paper's Minimalistic Synchronization Accelerator (MSA) and
// Overflow Management Unit (OMU): a per-tile accelerator with a handful of
// entries that serves locks, barriers, and condition variables in hardware,
// falling back safely and dynamically to a software (pthreads-style)
// implementation when its resources overflow.
//
// # Quick start
//
//	m := misar.New(misar.MSAOMU(16, 2))
//	arena := misar.NewArena(0x100000)
//	lock := arena.Mutex()
//	lib := misar.HWLib()
//	m.SpawnAll(16, func(tid int, e misar.Env) {
//		rt := lib.Bind(e, arena.QNode())
//		rt.Lock(lock)
//		e.Store(0x200000, e.Load(0x200000)+1)
//		rt.Unlock(lock)
//	})
//	cycles, err := m.Run(misar.RunDeadline)
//
// Simulated threads are ordinary Go functions: they receive an Env through
// which they issue timed computation, memory accesses against the simulated
// coherent memory, and the six MiSAR synchronization instructions (via the
// syncrt library types, which implement the paper's Algorithms 1-3:
// hardware first, software fallback on FAIL/ABORT).
//
// Machine variants mirror the paper's evaluation: MSAOMU(tiles, entries),
// MSA0 (instructions always fail locally), MSAInf (unbounded entries),
// Ideal (zero-latency synchronization), plus the WithoutOMU, WithoutHWSync,
// LockOnly and BarrierOnly ablation transforms. The workload suite and the
// per-figure experiment harness are exposed through subordinate helpers;
// see cmd/misar-fig to regenerate every table and figure of the paper.
package misar

import (
	"misar/internal/cpu"
	"misar/internal/harness"
	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/metrics"
	"misar/internal/obs"
	"misar/internal/sim"
	"misar/internal/stats"
	"misar/internal/store"
	"misar/internal/syncrt"
	"misar/internal/verify"
	"misar/internal/workload"
)

// Core model types, re-exported for library users.
type (
	// Config describes a machine (tile count, NoC/cache/MSA/CPU settings).
	Config = machine.Config
	// Machine is a fully wired model instance.
	Machine = machine.Machine
	// Env is the execution environment a simulated thread sees.
	Env = cpu.Env
	// Thread is a simulated software thread (for suspend/resume/migration).
	Thread = cpu.Thread
	// Time is the simulated clock in cycles.
	Time = sim.Time
	// Addr is a simulated physical address.
	Addr = memory.Addr

	// Lib is a synchronization-library configuration; T its per-thread
	// binding with Lock/Unlock/Wait/CondWait/CondSignal/CondBroadcast.
	Lib = syncrt.Lib
	T   = syncrt.T
	// Mutex, Cond and Barrier are synchronization variable descriptors.
	Mutex   = syncrt.Mutex
	Cond    = syncrt.Cond
	Barrier = syncrt.Barrier
	// Arena hands out non-overlapping simulated addresses.
	Arena = syncrt.Arena

	// App is a runnable benchmark program from the workload suite.
	App = workload.App
	// Table is a rendered experiment result.
	Table = stats.Table
	// Options scales harness experiments.
	Options = harness.Options
	// FlightEvent is one recorded protocol event. Every machine keeps the
	// most recent ones in its flight rings; Machine.ResizeFlight enlarges
	// them into a whole-run trace, read back with Machine.FlightEvents (see
	// cmd/misar-trace).
	FlightEvent = obs.FlightEvent
	// Histogram is a power-of-two bucketed latency histogram.
	Histogram = stats.Histogram

	// MetricsRegistry holds a metered machine's instruments (set
	// Config.Metrics, then read Machine.Metrics).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every instrument.
	MetricsSnapshot = metrics.Snapshot
	// MetricsReport is the per-run JSON observability artifact (see
	// Machine.MetricsReport and Runner.Reports).
	MetricsReport = metrics.Report
)

// RunDeadline is a generous default bound for Machine.Run.
const RunDeadline = workload.RunDeadline

// New builds a machine from a configuration.
func New(cfg Config) *Machine { return machine.New(cfg) }

// Machine configurations (paper §6).
var (
	// Default is the headline MSA/OMU-2 machine.
	Default = machine.Default
	// MSAOMU is the MSA/OMU-N configuration.
	MSAOMU = machine.MSAOMU
	// MSA0 makes every synchronization instruction FAIL locally.
	MSA0 = machine.MSA0
	// MSAInf gives the accelerator unbounded entries.
	MSAInf = machine.MSAInf
	// Ideal resolves synchronization with zero latency.
	Ideal = machine.Ideal
	// WithoutOMU disables overflow management (Fig. 7 baseline).
	WithoutOMU = machine.WithoutOMU
	// WithoutHWSync disables the §5 optimization (Fig. 8 baseline).
	WithoutHWSync = machine.WithoutHWSync
	// LockOnly/BarrierOnly restrict accelerated types (Fig. 9).
	LockOnly    = machine.LockOnly
	BarrierOnly = machine.BarrierOnly
	// WithBloomOMU swaps in the counting-Bloom-filter OMU (§3.2).
	WithBloomOMU = machine.WithBloomOMU
	// WithFixedPriority replaces NBTC round-robin grants (ablation A3).
	WithFixedPriority = machine.WithFixedPriority
	// SaveConfig/LoadConfig serialize machine configurations as JSON.
	SaveConfig = machine.SaveConfig
	LoadConfig = machine.LoadConfig
	// NewMetricsRegistry builds an empty metrics registry.
	NewMetricsRegistry = metrics.NewRegistry
	// WriteChromeTrace renders flight events as Chrome trace-event JSON
	// (Perfetto-loadable).
	WriteChromeTrace = obs.WriteChrome
)

// Synchronization libraries (the paper's software baselines and the
// modified hardware-first library of Algorithms 1-3).
var (
	PthreadLib = syncrt.PthreadLib
	SpinLib    = syncrt.SpinLib
	MCSTourLib = syncrt.MCSTourLib
	MCSTreeLib = syncrt.MCSTreeLib
	HWLib      = syncrt.HWLib
)

// Condition-variable semantics (set Lib.Cond).
const (
	CondMesa       = syncrt.CondMesa
	CondNoSpurious = syncrt.CondNoSpurious
)

// Latency histogram classes (see Machine.Latency).
const (
	LatLock    = cpu.LatLock
	LatUnlock  = cpu.LatUnlock
	LatBarrier = cpu.LatBarrier
	LatCond    = cpu.LatCond
)

// NewArena starts a synchronization-variable allocator at base.
func NewArena(base Addr) *Arena { return syncrt.NewArena(base) }

// Workload suite access.
var (
	// Suite returns every benchmark profile of the evaluation.
	Suite = workload.Suite
	// AppByName finds one benchmark by its paper name.
	AppByName = workload.ByName
	// RunApp executes an app on a fresh machine.
	RunApp = workload.Run
)

// Experiment harness: one entry per paper artifact. Each figure returns
// (*stats.Table, error); Options.Parallel sizes the worker pool these
// package-level entry points use. To share one memoization cache across
// several figures, build a Runner and call its methods instead.
var (
	Table1         = harness.Table1
	Fig5           = harness.Fig5
	Fig6           = harness.Fig6
	Fig7           = harness.Fig7
	Fig8           = harness.Fig8
	Fig9           = harness.Fig9
	Headline       = harness.Headline
	OMUSweep       = harness.OMUSweep
	BloomSweep     = harness.BloomSweep
	EntrySweep     = harness.EntrySweep
	Fairness       = harness.Fairness
	SuspendStress  = harness.SuspendStress
	SyncOverhead   = harness.SyncOverhead
	DefaultOptions = harness.DefaultOptions
	QuickOptions   = harness.QuickOptions
	// ScaleSweep measures the sharded kernel's wall-clock scaling at
	// machine sizes beyond the paper's evaluation (256/1024 tiles).
	ScaleSweep = harness.ScaleSweep
	// ShardTransform is the Runner config transform that moves every
	// compatible simulation onto the N-shard conservative kernel.
	ShardTransform = harness.ShardTransform
	// NewRunner builds the parallel, memoizing experiment executor.
	NewRunner = harness.NewRunner
)

// Runner is the parallel, memoizing experiment executor: a worker pool
// that simulates each unique (app, config, tiles, library) combination
// exactly once, sharing results (e.g. the pthread baseline) across
// figures. ProgressEvent and RunnerStats expose its per-run reporting and
// cache counters.
type (
	Runner        = harness.Runner
	ProgressEvent = harness.ProgressEvent
	RunnerStats   = harness.RunnerStats
)

// Store is the content-addressed, disk-persistent result store. Attach one
// to a Runner with SetStore and identical simulations are served from disk
// across processes and restarts (misar-fig -store, misar-served -store).
type Store = store.Store

// OpenStore opens a persistent result store rooted at dir, creating the
// directory if needed. Multiple processes may share one store directory.
var OpenStore = store.Open

// VerifyModels returns the shipped protocol models (MESI, OMU exclusivity,
// MSA lock mutex, barrier epochs) for the counter-abstraction model checker,
// and CertifyModels explores them all — plus their deliberately-broken
// variants — into a JSON-ready certificate (see DESIGN.md §12 and
// cmd/misar-verify).
var (
	VerifyModels  = verify.Models
	CertifyModels = verify.Certify
)
