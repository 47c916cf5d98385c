// Command bench is the moqod end-to-end benchmark: it builds ./cmd/moqod,
// boots it as a child process, drives it over HTTP from two closed-loop
// clients with one of four frozen workloads, verifies every result, and
// prints every metric by name and unit. See README.md.
//
//	go -C bench run . --workload cold_distinct --seed 1 --seconds 20 --trace 0
//	                                  one run; the last line of stdout is the
//	                                  result as one JSON object (the form the
//	                                  benchmark driver calls)
//	go -C bench run .                 every workload untraced, then traced;
//	                                  writes bench/results/<utc>-<commit>.json
//	go -C bench run . -runs 3         …with three untraced runs per workload
//	go -C bench run . -smoke          every workload for about a second
//	go -C bench run . -compare old.json new.json
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hostBlock records where a result was measured. Results from different
// hosts, or different client counts, are not comparable; -compare refuses
// them.
type hostBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of the moqod child
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	BuildS     float64 `json:"moqod_build_s"`
}

// comparable reports whether two hosts' numbers may be compared: the
// commit and the build time are expected to differ.
func (h hostBlock) comparable(o hostBlock) bool {
	h.Commit, h.BuildS = "", 0
	o.Commit, o.BuildS = "", 0
	return h == o
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Host      hostBlock         `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads map[string]string `json:"workloads"` // frozen definitions, see workloadFingerprint
	Runs      []*runResult      `json:"runs"`
}

// workloadFingerprint freezes a workload's definition into a string: its
// rationale, node flags, tail percentiles and a digest of the first
// requests of seed 1. Two result files whose fingerprints differ measured
// different things.
func workloadFingerprint(w workload) string {
	return fmt.Sprintf("%s|nocache=%v|cachedir=%v|cycle=%d|tails=%+v|requests=%x",
		w.Why, w.NoCache, w.CacheDir, w.CycleSessions, w.Tail, sha256.Sum256(requestList(w, 1, 256)))
}

const (
	defaultSeconds = 20
	setupReps      = 3
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line of stdout")
		seed         = flag.Int64("seed", 1, "seed of the generated workload inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of each timed phase")
		traceFlag    = flag.Int("trace", 1, "1: record spans and report the per-layer metrics (full mode: after the untraced runs); 0: end-to-end metrics only")
		runs         = flag.Int("runs", 1, "full mode: untraced runs per workload")
		smoke        = flag.Bool("smoke", false, "every workload for about a second, no probes")
		compareMode  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		manifestMode = flag.Bool("manifest", false, "print BENCHMARK.json as this package declares it, and exit")
		clients      = flag.Int("clients", 0, "closed-loop clients (0 = min(nproc, 2))")
		procs        = flag.Int("procs", 0, "GOMAXPROCS of the moqod child (0 = min(nproc, 2))")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *manifestMode {
		data, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(data)
		return 0
	}
	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	// Host guard: more clients or scheduler threads than cores measures
	// oversubscription, not moqod.
	nproc := runtime.NumCPU()
	if *clients == 0 {
		*clients = min(nproc, 2)
	}
	if *procs == 0 {
		*procs = min(nproc, 2)
	}
	if *clients > nproc || *procs > nproc {
		fmt.Fprintf(os.Stderr, "bench: refusing to run %d clients / GOMAXPROCS %d on %d cores\n", *clients, *procs, nproc)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	resultsDir := filepath.Join(root, "bench", "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return fail(err)
	}
	// Everything the run leaves behind besides results lives in one
	// directory, removed on every way out (panics unwind through here;
	// SIGINT/SIGTERM cancel ctx and the run returns).
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(workDir)

	bin := filepath.Join(workDir, "moqod")
	buildStart := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/moqod")
	build.Dir = root
	if outp, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: build moqod: %v\n%s", err, outp)
		return 1
	}
	host := hostBlock{
		NProc: nproc, GOMAXPROCS: *procs, Clients: *clients,
		GoVersion: runtime.Version(), Kernel: kernelRelease(), Commit: gitCommit(root),
		BuildS: time.Since(buildStart).Seconds(),
	}

	base := runConfig{
		Seed: *seed, Seconds: *seconds, Clients: *clients, SetupReps: setupReps,
		WorkDir: workDir, ResultsDir: resultsDir, ProbeQueries: probeQueries,
	}
	if *smoke {
		base.Seconds, base.SetupReps, base.ProbeQueries = 1, 1, 0
	}
	runOne := func(w workload, traced bool) (*runResult, error) {
		cfg := base
		cfg.W, cfg.Traced = w, traced
		stderrPath := filepath.Join(resultsDir, "moqod-"+w.Name+".stderr.log")
		os.Remove(stderrPath) // one log per run; the launcher appends across boots
		cfg.Launch = childLauncher(bin, *procs, stderrPath)
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s aborted: %v\n--- last lines of %s ---\n%s", w.Name, err, stderrPath, tailLines(stderrPath, 50))
			return nil, err
		}
		return res, nil
	}

	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		res, err := runOne(w, *traceFlag != 0)
		if err != nil {
			return 1
		}
		printRun(os.Stdout, res)
		line, err := json.Marshal(contractLine(res))
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	// Full mode.
	file := resultFile{Host: host, Seed: *seed, Seconds: base.Seconds, Workloads: map[string]string{}}
	for _, w := range workloads {
		file.Workloads[w.Name] = workloadFingerprint(w)
	}
	fmt.Printf("host: %+v\n", host)
	okAll := true
	untraced := map[string]float64{} // sessions_per_s of the last untraced run
	for _, traced := range []bool{false, true} {
		if traced && *traceFlag == 0 {
			break
		}
		n := *runs
		if traced {
			n = 1
		}
		for _, w := range workloads {
			for i := 0; i < n; i++ {
				res, err := runOne(w, traced)
				if err != nil {
					return 1
				}
				if traced {
					// End-to-end numbers always come from the untraced
					// run; the traced run's throughput only prices the
					// tracing.
					if base := untraced[w.Name]; base > 0 {
						tracedRate := float64(res.Counts["sessions_completed"]) / res.WallS
						res.Metrics["trace.overhead_share"] = metricValue{Value: 1 - tracedRate/base, Unit: "ratio"}
					}
				} else {
					untraced[w.Name] = res.Metrics["sessions_per_s"].Value
				}
				printRun(os.Stdout, res)
				file.Runs = append(file.Runs, res)
				okAll = okAll && res.Correct
			}
		}
	}
	name := fmt.Sprintf("%s-%.12s.json", time.Now().UTC().Format("20060102T150405Z"), host.Commit)
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(resultsDir, name), data, 0o644)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %s\n", filepath.Join("bench", "results", name))
	if !okAll {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed or a session did not complete")
		return 1
	}
	return 0
}

// manifest renders BENCHMARK.json from the declarations of this package
// (workloads, endToEnd, perLayer), so the file at the repository root is
// generated, not maintained by hand: go -C bench run . -manifest.
func manifest() ([]byte, error) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "-C", "bench", "run", "."},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}

// contractLine is the result object the benchmark driver reads from the
// last line of stdout.
func contractLine(res *runResult) map[string]any {
	metrics := map[string]any{}
	for name, m := range res.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": max(res.Attempted, 1), "failed": res.Failed, "metrics": metrics,
	}
}

// printRun prints every metric of a run by name and unit, with its
// sample count and — for tails — the percentile used.
func printRun(w *os.File, res *runResult) {
	mode := "end-to-end"
	if res.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %gs  %s  sessions %d attempted / %d failed  digest %.16s\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Attempted, res.Failed, res.FrontierDigest)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		extra := ""
		if m.Samples > 0 {
			extra = fmt.Sprintf("  n=%d", m.Samples)
		}
		if strings.HasSuffix(name, "_tail") {
			extra += fmt.Sprintf("  p%d", m.Pct)
		}
		fmt.Fprintf(w, "%-40s %14.4f %-6s%s\n", name, m.Value, m.Unit, extra)
	}
	for _, route := range routes {
		c := res.Routes[route]
		fmt.Fprintf(w, "route %-7s attempted %6d  succeeded %6d  failed %d\n", route, c.Attempted, c.Succeeded, c.Failed)
	}
	for _, k := range sortedKeys(res.Counts) {
		fmt.Fprintf(w, "count %-20s %d\n", k, res.Counts[k])
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}

// repoRoot finds the repository the benchmark sits in: the directory
// above the one holding this module's go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "moqod", "main.go")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", errors.New("cmd/moqod not found above " + dir + ": run from the repository (go -C bench run .)")
		}
	}
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// gitCommit returns HEAD, or "unknown" outside a git checkout (the
// benchmark driver runs from an exported tree).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// tailLines returns the last n lines of a file.
func tailLines(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n") + "\n"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
