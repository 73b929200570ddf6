// Command benchmark measures the simulated Erebor on two clocks: virtual
// cycles, the cost of the modelled system, and host CPU, the cost of the
// simulator. It runs five workloads (see workloads.go and README.md), each
// as a series of identical reps in child processes started one at a time,
// checks every output, and prints each metric with its unit. The last line
// of standard output is the result as one JSON object.
//
//	benchmark [-seed N] [-seconds S] [-out result.json] [-trace-dir DIR]
//	benchmark -workload NAME -seed N -seconds S -trace 0|1
//	benchmark -repeat-check [-seed N]
//
// With -workload, -trace 0 reports the end-to-end metrics and -trace 1 the
// per-layer ones, measured on one traced rep; without it every workload
// runs with its reps interleaved. run.sh builds and runs it from the
// repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// repsFor is the number of untraced reps per workload in a run of the
// given length: a rep takes about two seconds.
func repsFor(seconds int) int { return max(seconds/2, 1) }

func main() {
	only := flag.String("workload", "", "run only this workload (default: all five, reps interleaved)")
	seed := flag.Int64("seed", 1, "input seed; every rep of a run draws the same inputs from it")
	seconds := flag.Int("seconds", 20, "run length, 1-60: each workload runs one rep per two seconds (each rep about two CPU seconds on a 2-vCPU host)")
	traceN := flag.Int("trace", 0, "1: also run one traced rep per workload and report per-layer metrics (with -workload, instead of the end-to-end ones)")
	traceDir := flag.String("trace-dir", "", "write the traced reps' spans, folded cycle profiles and host CPU profiles here (implies -trace 1)")
	outPath := flag.String("out", "", "also write the result JSON to this file")
	repeat := flag.Bool("repeat-check", false, "run every workload twice and compare each end-to-end metric against its bound")
	child := flag.Bool("child", false, "internal: run one rep (or, with -check, the gates) in this process")
	check := flag.Bool("check", false, "internal: with -child, run the Table 3/4 gate and the workload's reference")
	ops := flag.Int("ops", 0, "internal: ops in the rep, with -child")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *seconds > 60 {
		fail("-seconds %d out of range 1-60", *seconds)
	}
	if *traceN != 0 && *traceN != 1 {
		fail("-trace must be 0 or 1")
	}
	traced := *traceN == 1 || *traceDir != ""
	wls := workloadList
	if *only != "" {
		wl := findWorkload(*only)
		if wl == nil {
			fail("unknown workload %q", *only)
		}
		wls = []*workload{wl}
	}

	if *child {
		// One P: the Go scheduler's spinning threads and idle-time GC
		// workers on a second P add CPU time that varies with whatever
		// else the machine runs, and simulation is single-threaded.
		runtime.GOMAXPROCS(1)
		var res any
		var err error
		switch {
		case len(wls) != 1:
			fail("-child needs -workload")
		case *check:
			res, err = runCheck(wls[0], *seed)
		case *ops < 1:
			fail("-child needs -ops")
		default:
			res, err = runRep(wls[0], *seed, *ops, traced, *traceDir)
		}
		if err != nil {
			fail("%s: %v", wls[0].name, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fail("%v", err)
		}
		return
	}

	if *repeat {
		ok, err := repeatCheck(wls, *seed, *seconds)
		if err != nil {
			fail("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// A single-workload traced run reports per-layer metrics only; one
	// untraced rep of the same seed is its reference.
	single := *only != ""
	n := repsFor(*seconds)
	if traced && single {
		n = 1
	}
	outs, err := measure(wls, *seed, n, traced, *traceDir)
	if err != nil {
		fail("%v", err)
	}
	res := report(outs, !(traced && single), traced, single)
	line, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(line, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runRep runs one rep in this process and, for a traced rep, attributes
// its host CPU profile to layers and writes the trace artifacts.
func runRep(wl *workload, seed int64, ops int, traced bool, traceDir string) (*repResult, error) {
	r := &rep{seed: seed, traced: traced, counts: make(map[string]uint64)}
	if traced {
		r.spans, r.stacks = newSpanLog(), make(map[string]uint64)
	}
	r.root = r.spans.begin(wl.name, 0)
	err := wl.run(r, ops)
	r.spans.end(r.root)
	if err != nil {
		return nil, err
	}
	if r.res.PeakRSSKB, err = peakRSSKB(); err != nil {
		return nil, err
	}
	if !traced {
		return &r.res, nil
	}
	r.res.Profile = profileMetrics(r.stacks, ops)
	r.res.HostNS = make(map[string]int64)
	for _, p := range r.cpuProf {
		samples, err := parsePprof(p)
		if err != nil {
			return nil, err
		}
		for l, ns := range hostLayers(samples) {
			r.res.HostNS[l] += ns
		}
	}
	if traceDir != "" {
		if err := writeTrace(traceDir, wl.name, r); err != nil {
			return nil, fmt.Errorf("trace artifacts: %w", err)
		}
	}
	return &r.res, nil
}

// peakRSSKB reads this process's peak resident set. It is read here, not
// from the parent's wait status, because a child started by vfork+exec
// inherits the parent's resident set in its rusage maximum.
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// writeTrace writes a traced rep's spans (JSON), its virtual-cycle profile
// (folded stacks, flamegraph.pl input) and one host CPU profile per op
// window (pprof; go tool pprof merges several).
func writeTrace(dir, name string, r *rep) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.MarshalIndent(r.spans.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".spans.json"), spans, 0o644); err != nil {
		return err
	}
	stacks := make([]string, 0, len(r.stacks))
	for s := range r.stacks {
		stacks = append(stacks, s)
	}
	sort.Strings(stacks)
	var folded bytes.Buffer
	for _, s := range stacks {
		fmt.Fprintf(&folded, "%s %d\n", s, r.stacks[s])
	}
	if err := os.WriteFile(filepath.Join(dir, name+".folded"), folded.Bytes(), 0o644); err != nil {
		return err
	}
	for i, p := range r.cpuProf {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.pprof", name, i+1)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// spawn runs this binary as a child process with args and decodes the
// JSON it prints into out. The parent only orchestrates: all simulator
// work runs in children, one at a time, so nothing else the benchmark does
// competes with a measurement or leaves memory behind for the next child.
func spawn(out any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, append([]string{"-child"}, args...)...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	if err := cmd.Run(); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// outcome is one workload's reps and what they add up to.
type outcome struct {
	wl     *workload
	plain  []*repResult
	traced *repResult
	e2e    map[string]float64
	layers map[string]float64
	errors []string
	info   []string
}

// measure runs n untraced reps of every workload, interleaved (rep 1 of
// each workload, then rep 2, ...), so slow spells on a shared machine
// spread over all workloads; then, if traced, one traced rep of each; then
// each workload's check process.
func measure(wls []*workload, seed int64, n int, traced bool, traceDir string) ([]*outcome, error) {
	outs := make([]*outcome, len(wls))
	for i, wl := range wls {
		outs[i] = &outcome{wl: wl}
	}
	rep := func(o *outcome, extra ...string) (*repResult, error) {
		var res repResult
		args := append([]string{"-workload", o.wl.name, "-seed", strconv.FormatInt(seed, 10),
			"-ops", strconv.Itoa(o.wl.ops)}, extra...)
		err := spawn(&res, args...)
		return &res, err
	}
	for r := 1; r <= n; r++ {
		for _, o := range outs {
			res, err := rep(o)
			if err != nil {
				return nil, fmt.Errorf("%s rep %d: %w", o.wl.name, r, err)
			}
			o.plain = append(o.plain, res)
		}
	}
	if traced {
		for _, o := range outs {
			res, err := rep(o, "-trace", "1", "-trace-dir="+traceDir)
			if err != nil {
				return nil, fmt.Errorf("%s traced rep: %w", o.wl.name, err)
			}
			o.traced = res
		}
	}
	for _, o := range outs {
		var chk checkResult
		if err := spawn(&chk, "-check", "-workload", o.wl.name, "-seed", strconv.FormatInt(seed, 10)); err != nil {
			return nil, fmt.Errorf("%s check: %w", o.wl.name, err)
		}
		o.finish(&chk)
	}
	return outs, nil
}

// finish aggregates the reps and runs the checks that span reps: every
// rep, in its own process, must have produced the same virtual metrics,
// tracing must not move a cycle, and the output must match the workload's
// reference run.
func (o *outcome) finish(chk *checkResult) {
	all := o.plain
	if o.traced != nil {
		all = append(all[:len(all):len(all)], o.traced)
	}
	want, _ := json.Marshal(o.plain[0].virtualPart())
	for i, r := range all {
		name := fmt.Sprintf("rep %d", i+1)
		if r == o.traced {
			name = "traced rep"
		}
		for _, e := range r.Errors {
			o.errors = append(o.errors, name+": "+e)
		}
		if got, _ := json.Marshal(r.virtualPart()); !bytes.Equal(got, want) {
			o.errors = append(o.errors, name+": virtual metrics differ from rep 1's")
		}
	}
	for _, e := range chk.Errors {
		o.errors = append(o.errors, "gate: "+e)
	}
	if o.wl.reference != nil {
		if got := o.plain[0].Output; got != chk.Output {
			o.errors = append(o.errors, fmt.Sprintf("output %q differs from the reference run's %q", got, chk.Output))
		}
		o.info = append(o.info, fmt.Sprintf("erebor_vs_native_overhead_pct=%.2f (paper: %.2f; the model's error, not gated)",
			(float64(o.plain[0].Lat[0])/float64(chk.VCycles)-1)*100, o.wl.paperOverheadPct))
	}
	if len(o.errors) > 0 {
		return
	}
	o.e2e = endToEndMetrics(o.plain)
	if o.traced != nil {
		o.layers = perLayerMetrics(o.traced, o.plain[0])
	}
}

// metricValue is one metric in the result JSON.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last. A single-workload
// run fills Metrics; a run of every workload fills Workloads.
type result struct {
	Correct   bool                              `json:"correct"`
	Attempted int                               `json:"attempted"`
	Failed    int                               `json:"failed"`
	Metrics   map[string]metricValue            `json:"metrics,omitempty"`
	Workloads map[string]map[string]metricValue `json:"workloads,omitempty"`
}

// report prints every metric of every outcome as "workload metric value
// unit" lines, then every error, and returns the result object.
func report(outs []*outcome, e2e, layers, single bool) *result {
	res := &result{Workloads: make(map[string]map[string]metricValue)}
	var errs []string
	for _, o := range outs {
		mv := make(map[string]metricValue)
		emit := func(specs []metricSpec, vals map[string]float64) {
			for _, s := range specs {
				v, ok := vals[s.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					errs = append(errs, fmt.Sprintf("%s: metric %s has no value", o.wl.name, s.Name))
					continue
				}
				mv[s.Name] = metricValue{v, s.Unit}
				fmt.Printf("%-15s %-38s %18.6f %s\n", o.wl.name, s.Name, v, s.Unit)
			}
		}
		if e2e {
			emit(endToEnd, o.e2e)
		}
		if layers {
			emit(perLayer, o.layers)
		}
		for _, info := range o.info {
			fmt.Printf("%-15s info: %s\n", o.wl.name, info)
		}
		for _, e := range o.errors {
			errs = append(errs, o.wl.name+": "+e)
		}
		for _, r := range append(o.plain[:len(o.plain):len(o.plain)], o.traced) {
			if r != nil {
				res.Attempted += r.Ops
				res.Failed += r.Failed
			}
		}
		res.Workloads[o.wl.name] = mv
	}
	for _, e := range errs {
		fmt.Println("ERROR", e)
	}
	res.Correct = len(errs) == 0
	if single {
		res.Metrics, res.Workloads = res.Workloads[outs[0].wl.name], nil
	}
	return res
}

// repeatCheck runs every workload twice and compares each end-to-end
// metric of the second set with the first: virtual metrics must be
// identical, and every metric must stay within its bound. It prints the
// worst spread of each host metric, the evidence behind its bound.
func repeatCheck(wls []*workload, seed int64, seconds int) (bool, error) {
	var sets [2][]*outcome
	for i := range sets {
		outs, err := measure(wls, seed, repsFor(seconds), false, "")
		if err != nil {
			return false, err
		}
		sets[i] = outs
	}
	ok := true
	fmt.Printf("%-15s %-20s %18s %18s %8s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, s := range endToEnd {
		worst, worstWL := 0.0, ""
		for i, o := range sets[0] {
			if o.e2e == nil || sets[1][i].e2e == nil {
				continue // failed checks, reported below
			}
			a, b := o.e2e[s.Name], sets[1][i].e2e[s.Name]
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > s.Bound || s.Bound == virtualBound && a != b {
				verdict, ok = "FAIL", false
			}
			if diff >= worst {
				worst, worstWL = diff, o.wl.name
			}
			fmt.Printf("%-15s %-20s %18.6f %18.6f %7.2f%% %5.1f%% %s\n", o.wl.name, s.Name, a, b, diff*100, s.Bound*100, verdict)
		}
		if s.Bound != virtualBound {
			fmt.Printf("worst spread of %s: %.2f%% (%s), bound %.0f%%\n", s.Name, worst*100, worstWL, s.Bound*100)
		}
	}
	for _, outs := range sets {
		for _, o := range outs {
			for _, e := range o.errors {
				fmt.Println("ERROR", o.wl.name+":", e)
				ok = false
			}
		}
	}
	return ok, nil
}
