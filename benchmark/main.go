// Command benchmark is the one performance harness of the S2C2 runtime:
// four named workloads against the public functions of
// internal/{kernel,coding,sched,wire,rpc,predict,sim}, seven end-to-end
// metrics measured with tracing off, and — in a separate traced run — the
// round's time budget per layer. BENCHMARK.json at the repo root declares
// the same names, units and bounds; README.md says why each was chosen.
//
//	bash benchmark/run.sh --workload dram-matvec --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --seed 1             # all four workloads
//	bash benchmark/run.sh --seed 1 --trace 1   # … plus the per-layer run
//	bash benchmark/run.sh --repeat 2           # repeatability self-check
//
// The last line of standard output is one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"github.com/coded-computing/s2c2/internal/kernel"
)

// reported is one metric as printed: the value as measured, and its unit.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the per-run object the driver reads from the last line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// fullReport is the last line when the whole set runs.
type fullReport struct {
	Env       map[string]any               `json:"env"`
	Claim     any                          `json:"claim"` // always null: this harness measures, it claims no gain
	Workloads map[string]map[string]result `json:"workloads"`
}

const (
	defaultSeconds = 20
	repetitions    = 5
	minRounds      = 200
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per workload run")
	traceFlag := fs.Int("trace", 0, "1: record spans and report the per-layer metrics (with -workload: instead of the end-to-end ones)")
	out := fs.String("out", "", "with -trace 1 and -workload: write the spans to this file as JSON lines")
	repeat := fs.Int("repeat", 1, "run the whole set this many times and compare the end-to-end metrics against their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds and -repeat must be positive, -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	cfg := runConfig{seed: *seed, seconds: *seconds, reps: repetitions, minRounds: minRounds, size: fullSizes}
	if *workload != "" {
		printInfo(stdout, "== environment", environment(cfg))
		cfg.traced, cfg.out = *traceFlag == 1, *out
		m, err := runWorkload(*workload, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		specs := endToEnd
		if cfg.traced {
			specs = perLayer
		}
		res := m.result(specs)
		printTable(stdout, *workload, specs, res, m.info)
		printJSON(stdout, res)
		if !res.Correct {
			return 1
		}
		return 0
	}

	// The whole set: every workload run is a process of its own, so peak
	// RSS, heap and GC state are that run's alone — exactly what the
	// single-workload command measures. A workload's repeats run back to
	// back, which keeps the host's slow drift out of their comparison.
	sets := make([]map[string]map[string]result, *repeat)
	for r := range sets {
		sets[r] = map[string]map[string]result{}
	}
	ok := true
	for _, name := range workloadNames {
		for r := range sets {
			sets[r][name] = map[string]result{}
			for traced, key := range []string{"end_to_end", "per_layer"}[:1+*traceFlag] {
				res, err := runChild(stdout, stderr, name, cfg, traced)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				sets[r][name][key] = res
				ok = ok && res.Correct
			}
		}
	}
	for r := 1; r < len(sets); r++ {
		ok = compareSets(stdout, sets[0], sets[r]) && ok
	}
	printJSON(stdout, fullReport{Env: environment(cfg), Workloads: sets[len(sets)-1]})
	if !ok {
		return 1
	}
	return 0
}

// runChild runs this program on one workload and returns the result from
// the last line of its output, passing the lines before it through.
func runChild(stdout, stderr io.Writer, name string, cfg runConfig, traced int) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(traced))
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run() // a child that measured failures still prints its result, then exits 1
	report := bytes.TrimRight(buf.Bytes(), "\n")
	last := bytes.LastIndexByte(report, '\n') + 1
	if _, err := stdout.Write(report[:last]); err != nil {
		return res, err
	}
	if err := json.Unmarshal(report[last:], &res); err != nil {
		return res, fmt.Errorf("%s: no result from child (%v): %w", name, runErr, err)
	}
	return res, nil
}

func runWorkload(name string, cfg runConfig) (*measurement, error) {
	switch name {
	case wlDRAM:
		setup, info := dramWorkload(cfg)
		return runRPC(cfg, setup, info)
	case wlGFServe:
		setup, info := gfServeWorkload(cfg)
		return runRPC(cfg, setup, info)
	case wlStraggler:
		setup, info := stragglerWorkload(cfg)
		return runRPC(cfg, setup, info)
	case wlSimPaper:
		return runSim(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// result shapes a measurement into the driver's object: every declared
// metric is present; a layer the workload does not run reads 0.
func (m *measurement) result(specs []metricSpec) result {
	res := result{
		Correct:   !m.inexact && m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]reported, len(specs)),
	}
	for _, s := range specs {
		v := m.values[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[s.Name] = reported{Value: v, Unit: s.Unit}
	}
	return res
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps, numbers and strings: cannot fail
	}
	fmt.Fprintf(w, "%s\n", b)
}

func printTable(w io.Writer, name string, specs []metricSpec, res result, info map[string]any) {
	printInfo(w, fmt.Sprintf("== %s: attempted %d, failed %d (failed_frac %.4g), correct %v",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct), info)
	for _, s := range specs {
		fmt.Fprintf(w, "   %-40s %14.6g %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
}

func printInfo(w io.Writer, title string, info map[string]any) {
	fmt.Fprintln(w, title)
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %s: %v\n", k, info[k])
	}
}

// compareSets prints, for every end-to-end metric, how much worse the
// second set is than the first, and reports whether all stay in bounds.
func compareSets(w io.Writer, a, b map[string]map[string]result) bool {
	ok := true
	fmt.Fprintln(w, "== repeatability: second set against the first (positive = worse)")
	for _, name := range workloadNames {
		for _, s := range endToEnd {
			x, y := a[name]["end_to_end"].Metrics[s.Name].Value, b[name]["end_to_end"].Metrics[s.Name].Value
			worse := (y - x) / x
			if s.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := "ok"
			if !(worse <= s.Bound) {
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Fprintf(w, "   %-16s %-18s %12.6g -> %12.6g  %+7.2f%% (bound %2.0f%%) %s\n",
				name, s.Name, x, y, 100*worse, 100*s.Bound, verdict)
		}
	}
	return ok
}

// environment records what the numbers were taken on.
func environment(cfg runConfig) map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"kernel_backend": kernel.ActiveBackend(),
		"l2_cache":       cacheSize(2),
		"l3_cache":       cacheSize(3),
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"repetitions":    cfg.reps,
		"min_rounds":     cfg.minRounds,
	}
}

// cacheSize reads cpu0's cache size at the given level from sysfs ("" if
// the machine does not say).
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != fmt.Sprint(level) {
			continue
		}
		if typ, _ := os.ReadFile(dir + "type"); strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		size, _ := os.ReadFile(dir + "size")
		return strings.TrimSpace(string(size))
	}
	return ""
}
