// Command wtbench is the repository's benchmark. It generates a corpus
// and a request stream from a seed, brings up the real HTTP serving
// topologies in-process over loopback, drives them from at most nproc
// client goroutines, checks every response byte for byte, and prints one
// JSON result line.
//
// Usage:
//
//	wtbench --workload search|routed|ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run
// (see README.md). The exit code is non-zero when any response or final
// state fails its correctness check.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("wtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "search, routed or ingest")
	fs.Int64Var(&o.seed, "seed", 1, "seed the corpus and request stream are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "measured time of the run")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want search, routed or ingest)", o.workload)
	}
	if o.seconds < minSeconds {
		return o, fmt.Errorf("--seconds must be at least %d", minSeconds)
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// minSeconds is the shortest run whose open-loop phases still collect
// enough samples for a p99.
const minSeconds = 10

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"search": func(ctx context.Context, b *bench) error { return runSearch(ctx, b, false) },
	"routed": func(ctx context.Context, b *bench) error { return runSearch(ctx, b, true) },
	"ingest": runIngest,
}

// bench is the state one run accumulates: the options, the correctness
// tally, the trace (nil when untraced) and the metrics to report.
type bench struct {
	opt     options
	out     io.Writer
	check   checker
	rec     *recorder
	metrics []metric
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Note describes the sample for the human-readable report.
	Note string
}

// add records a metric for the report.
func (b *bench) add(name, unit string, value float64, note string) {
	b.metrics = append(b.metrics, metric{Name: name, Unit: unit, Value: value, Note: note})
}

// logf prints one human-readable progress line to standard output.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// seconds returns a share of the run's measured time.
func (b *bench) seconds(share float64) time.Duration {
	return time.Duration(share * float64(b.opt.seconds) * float64(time.Second))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	opt, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "wtbench: %v\n", err)
		return 2
	}
	b := &bench{opt: opt, out: stdout}
	if opt.trace {
		b.rec = newRecorder()
	}
	b.logf("workload=%s seed=%d seconds=%d trace=%v GOMAXPROCS=%d", opt.workload, opt.seed, opt.seconds, opt.trace, runtime.GOMAXPROCS(0))
	if err := workloads[opt.workload](ctx, b); err != nil {
		fmt.Fprintf(stderr, "wtbench: %s: %v\n", opt.workload, err)
		return 1
	}
	if b.rec != nil {
		path, err := b.rec.dump(opt.workload, opt.seed)
		if err != nil {
			fmt.Fprintf(stderr, "wtbench: write trace: %v\n", err)
			return 1
		}
		b.logf("trace: %d spans written to %s", b.rec.len(), path)
	}
	line, err := b.result()
	if err != nil {
		fmt.Fprintf(stderr, "wtbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if b.check.failed.Load() > 0 {
		fmt.Fprintf(stderr, "wtbench: %d of %d checked operations failed; first: %s\n",
			b.check.failed.Load(), b.check.attempted.Load(), b.check.first())
		return 1
	}
	return 0
}

// result prints the human-readable metric lines and returns the JSON
// result line, with exactly the keys correct, attempted, failed and
// metrics.
func (b *bench) result() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(b.metrics))
	for _, m := range b.metrics {
		if _, dup := vals[m.Name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.Name)
		}
		vals[m.Name] = value{Value: m.Value, Unit: m.Unit}
		b.logf("%-34s %14.6g %-8s %s", m.Name, m.Value, m.Unit, m.Note)
	}
	attempted, failed := b.check.attempted.Load(), b.check.failed.Load()
	b.logf("%-34s %14.6g %-8s %d of %d operations", "fail_ratio", float64(failed)/float64(max(attempted, 1)), "ratio", failed, attempted)
	// encoding/json writes map keys in sorted order.
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, vals})
}
