// Command misar-trace prints a chronological protocol timeline: core sync
// instructions (issue/done, context switches), MSA requests and responses,
// grants, entry lifecycle, silent acquisitions, the condition-variable
// MSA-to-MSA handshakes, and the coherence deliveries in between.
//
// The timeline is the machine's flight recorder — the same always-on ring
// that failures dump — enlarged to -buffer events per shard for the run, so
// a live run and a served flight dump render through one path.
//
// Usage:
//
//	misar-trace -app fluidanimate -tiles 8 -last 40
//	misar-trace -app streamcluster -tiles 16 -addr 0x1000040
//	misar-trace -app fluidanimate -tiles 8 -format chrome > trace.json
//	misar-trace -from-flight flight.json -format chrome > trace.json
//
// -format chrome emits the timeline as Chrome trace-event JSON on stdout,
// loadable in ui.perfetto.dev or chrome://tracing.
//
// -from-flight renders a flight-recorder dump instead of running a
// simulation: the JSON served by misar-served's GET /v1/jobs/{id}/flight
// (or embedded in a liveness/safety/panic error), so the tail of events
// leading up to a failure opens in the same text or Perfetto views as a
// live trace. "-" reads the dump from stdin.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"misar/internal/machine"
	"misar/internal/memory"
	"misar/internal/obs"
	"misar/internal/syncrt"
	"misar/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status (2 for bad input,
// 1 for a failed simulation or write).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("misar-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "fluidanimate", "benchmark name")
	tiles := fs.Int("tiles", 8, "core count")
	entries := fs.Int("entries", 2, "MSA entries per slice")
	capacity := fs.Int("buffer", 100_000, "flight ring capacity (events per shard)")
	last := fs.Int("last", 100, "print only the last N events (0 = all)")
	addr := fs.String("addr", "", "filter to one sync address (hex)")
	format := fs.String("format", "text", "output format: text or chrome (trace-event JSON for Perfetto)")
	fromFlight := fs.String("from-flight", "", "render a flight-recorder dump (JSON file, or - for stdin) instead of simulating")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "misar-trace: "+format+"\n", a...)
		return code
	}

	if *format != "text" && *format != "chrome" {
		return fail(2, "unknown -format %q (want text or chrome)", *format)
	}

	var dump obs.FlightDump
	var header string
	if *fromFlight != "" {
		r := stdin
		if *fromFlight != "-" {
			f, err := os.Open(*fromFlight)
			if err != nil {
				return fail(2, "%v", err)
			}
			defer f.Close()
			r = f
		}
		var err error
		if dump, err = obs.ReadFlightDump(r); err != nil {
			return fail(2, "%v", err) // bad input, same convention as -app/-addr
		}
		header = fmt.Sprintf("# flight dump %s: job %s, trace %s, %d of %d total events retained",
			cmp.Or(dump.Label, "(unlabelled)"), cmp.Or(dump.Job, "-"), cmp.Or(dump.Trace, "-"),
			len(dump.Events), dump.Total)
	} else {
		app, ok := workload.ByName(*appName)
		if !ok {
			return fail(2, "unknown app %q", *appName)
		}
		var filter *memory.Addr
		if *addr != "" {
			v, err := strconv.ParseUint(strings.TrimPrefix(*addr, "0x"), 16, 64)
			if err != nil {
				return fail(2, "bad -addr %q", *addr)
			}
			a := memory.Addr(v)
			filter = &a
		}

		cfg := machine.MSAOMU(*tiles, *entries)
		m := machine.New(cfg)
		m.ResizeFlight(*capacity, filter)
		arena := syncrt.NewArena(0x1000000)
		m.SpawnAll(cfg.Tiles, app.Build(arena, cfg.Tiles, syncrt.HWLib()))
		cycles, err := m.Run(workload.RunDeadline)
		if err != nil {
			return fail(1, "%v", err)
		}
		dump = m.FlightDump()
		header = fmt.Sprintf("# %s on %s: %d cycles, %d events recorded (%d dropped, %d filtered)",
			app.Name, cfg.Name, cycles, len(dump.Events), dump.Total-uint64(len(dump.Events)), dump.Filtered)
	}
	if err := render(stdout, *format, header, dump.Events, *last); err != nil {
		return fail(1, "%v", err)
	}
	return 0
}

// render writes a timeline as Chrome trace-event JSON, or as text: the
// header line, then the last N events one per line.
func render(w io.Writer, format, header string, events []obs.FlightEvent, last int) error {
	if format == "chrome" {
		return obs.WriteChrome(w, events)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintf(w, "# %10s  %-7s %-9s %-8s %-11s detail\n", "cycle", "tile", "kind", "core", "addr")
	if last > 0 && len(events) > last {
		fmt.Fprintf(w, "# ... %d earlier events elided (use -last 0 for all)\n", len(events)-last)
		events = events[len(events)-last:]
	}
	for _, ev := range events {
		if _, err := fmt.Fprintln(w, ev); err != nil {
			return err
		}
	}
	return nil
}
