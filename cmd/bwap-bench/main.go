// bwap-bench runs the repository's root benchmarks and emits a
// machine-readable JSON snapshot (ns/op, B/op, allocs/op), so the
// performance trajectory is tracked across snapshots. CI runs it with a
// short -benchtime. The JSON goes to stdout unless -out names a file.
//
// Usage:
//
//	bwap-bench                                  # all root benchmarks -> stdout
//	bwap-bench -bench 'FleetThroughputSharded' -out BENCH_7.json
//	bwap-bench -bench 'EngineTick|Solver' -benchtime 10x -out bench.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Report is the emitted document.
type Report struct {
	GoVersion string  `json:"go_version"`
	Bench     string  `json:"bench_regex"`
	BenchTime string  `json:"benchtime"`
	Packages  string  `json:"packages"`
	Entries   []Entry `json:"entries"`
}

func main() {
	bench := flag.String("bench", ".", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "value for go test -benchtime")
	pkgs := flag.String("pkgs", "bwap", "packages whose benchmarks to run")
	out := flag.String("out", "", "output JSON path (default stdout)")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-benchtime", *benchtime}
	args = append(args, strings.Fields(*pkgs)...)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "bwap-bench: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	report := Report{
		GoVersion: goVersion(),
		Bench:     *bench,
		BenchTime: *benchtime,
		Packages:  *pkgs,
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if e, ok := parseLine(sc.Text()); ok {
			report.Entries = append(report.Entries, e)
		}
	}
	if len(report.Entries) == 0 {
		fmt.Fprintln(os.Stderr, "bwap-bench: no benchmark lines matched")
		os.Exit(1)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bwap-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			fmt.Fprintf(os.Stderr, "bwap-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bwap-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d benchmark entries to %s\n", len(report.Entries), *out)
}

// parseLine decodes one `go test -bench` result line, e.g.
//
//	BenchmarkEngineTickThroughput-8   10   758516 ns/op   29616 B/op   142 allocs/op
func parseLine(line string) (Entry, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Entry{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Entry{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Entry{}, false
	}
	e := Entry{Name: name, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		}
	}
	return e, true
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
