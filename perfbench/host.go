package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host is the provenance stamped into every result: the machine a number
// was taken on and the code it was taken of. Results from different hosts
// are never compared (see compareMain).
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"` // git commit when the tree is a repository, else "unknown"
	Source     string `json:"source"` // hash of every Go source and go.mod file in the tree
}

func probeHost(root string) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(root),
		Source:     sourceHash(root),
	}
}

// sameMachine refuses comparisons across hosts: a CPU model, core count or
// scheduler width change moves every host-time metric by itself.
func (h host) sameMachine(o host) error {
	var diffs []string
	if h.CPU != o.CPU {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", h.CPU, o.CPU))
	}
	if h.NProc != o.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", h.NProc, o.NProc))
	}
	if h.GOMAXPROCS != o.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", h.GOMAXPROCS, o.GOMAXPROCS))
	}
	if len(diffs) > 0 {
		return fmt.Errorf("results were taken on different hosts: %s", strings.Join(diffs, ", "))
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD by reading .git directly, so no process is started.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceHash identifies the code under test even where there is no git
// metadata: a hash over the paths and contents of every .go and go.mod file,
// skipping dot-directories (build output, VCS metadata).
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	d := newDigest()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		d.add(filepath.ToSlash(rel), b)
	}
	return d.sum()
}

// resultFile is the full record of one run, written next to the traces:
// provenance, every end-to-end and workload metric, and the per-layer
// metrics of a traced run.
type resultFile struct {
	Schema   string            `json:"schema"`
	Host     host              `json:"host"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Reps     int               `json:"reps"`
	Digest   string            `json:"output_digest"`
	Correct  bool              `json:"correct"`
	Attempt  int               `json:"attempted"`
	Failed   int               `json:"failed"`
	Metrics  map[string]metric `json:"metrics"`
	Layers   map[string]metric `json:"layers,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
}

const resultSchema = "misar-perfbench/v1"

// compareMain prints per-metric ratios between two result files, refusing
// (exit 2) when they were taken on different hosts or are not the same
// workload and seed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var rf [2]resultFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rf[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	old, cur := rf[0], rf[1]
	if err := old.Host.sameMachine(cur.Host); err != nil {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: %v\n", err)
		return 2
	}
	if old.Workload != cur.Workload || old.Seed != cur.Seed {
		fmt.Fprintf(stderr, "perfbench: refusing to compare %s/seed %d with %s/seed %d\n",
			old.Workload, old.Seed, cur.Workload, cur.Seed)
		return 2
	}
	fmt.Fprintf(stdout, "%s seed %d: %s -> %s\n", cur.Workload, cur.Seed, old.Host.Commit, cur.Host.Commit)
	if old.Digest == cur.Digest {
		fmt.Fprintln(stdout, "output_digest: identical (no simulated cycle moved)")
	} else {
		fmt.Fprintf(stdout, "output_digest: CHANGED %s -> %s\n", old.Digest, cur.Digest)
	}
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		if _, ok := old.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, c := old.Metrics[name], cur.Metrics[name]
		ratio := "n/a"
		if o.Value != 0 {
			ratio = fmt.Sprintf("%.3fx", c.Value/o.Value)
		}
		fmt.Fprintf(stdout, "  %-24s %14.6g -> %14.6g %-6s %s\n", name, o.Value, c.Value, c.Unit, ratio)
	}
	return 0
}
