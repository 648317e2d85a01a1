// bwap-numactl demonstrates the placement interface the paper adds to
// numactl/libnuma: alongside the stock --interleave, it offers the
// kernel-level --weighted interleave and the new --bw-interleave policy
// that BWAP contributes (Section I: "it enriches the original interface
// with a bw-interleaved policy option that automatically determines memory
// nodes ... and the per-node weights").
//
// It allocates a simulated segment, applies the requested policy, and
// prints the resulting per-node page distribution as a histogram.
//
// Usage:
//
//	bwap-numactl -machine A -interleave 0-3 -size 64
//	bwap-numactl -machine A -weighted 0.4,0.3,0.2,0.1 -size 64
//	bwap-numactl -machine A -bw-interleave 0,1 -dwp 20 -size 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bwap/internal/core"
	"bwap/internal/mm"
	"bwap/internal/numaapi"
	"bwap/internal/sim"
	"bwap/internal/topology"
)

func main() {
	machine := flag.String("machine", "A", "A or B")
	sizeMB := flag.Int("size", 64, "segment size in MiB")
	interleave := flag.String("interleave", "", "uniform interleave over this nodemask (numactl range syntax)")
	weighted := flag.String("weighted", "", "kernel-level weighted interleave: comma-separated per-node weights")
	bwInterleave := flag.String("bw-interleave", "", "BWAP policy: worker nodemask (canonical weights + DWP)")
	dwp := flag.Float64("dwp", 0, "data-to-worker proximity in percent, for -bw-interleave")
	userLevel := flag.Bool("user-level", true, "enforce -bw-interleave via Algorithm 1 (false: kernel weighted interleave)")
	flag.Parse()
	if *sizeMB < 1 {
		fmt.Fprintf(os.Stderr, "bwap-numactl: -size %d: segment size must be at least 1 MiB\n", *sizeMB)
		os.Exit(2)
	}

	var m *topology.Machine
	switch strings.ToUpper(*machine) {
	case "A":
		m = topology.MachineA()
	case "B":
		m = topology.MachineB()
	default:
		fatalf("unknown machine %q", *machine)
	}

	as := mm.NewAddressSpace(m.NumNodes())
	seg := as.AddSegment("data", uint64(*sizeMB)<<20, mm.SharedOwner)

	switch {
	case *interleave != "":
		mask, err := numaapi.ParseBitmask(*interleave)
		if err != nil {
			fatalf("%v", err)
		}
		if err := numaapi.InterleaveMemory(seg, mask); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("policy: MPOL_INTERLEAVE over nodes %s\n", mask)
	case *weighted != "":
		weights, err := parseWeights(*weighted, m.NumNodes())
		if err != nil {
			fatalf("%v", err)
		}
		if err := numaapi.WeightedInterleaveMemory(seg, weights); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("policy: weighted interleave %v\n", weights)
	case *bwInterleave != "":
		mask, err := numaapi.ParseBitmask(*bwInterleave)
		if err != nil {
			fatalf("%v", err)
		}
		ct := core.NewCanonicalTuner(m, sim.Config{})
		canonical, err := ct.Weights(mask.Nodes())
		if err != nil {
			fatalf("%v", err)
		}
		w, err := core.DWPWeights(canonical, mask.Nodes(), *dwp/100)
		if err != nil {
			fatalf("%v", err)
		}
		if *userLevel {
			err = core.UserLevelWeightedInterleave(seg, w, mm.MoveFlag|mm.StrictFlag)
		} else {
			err = seg.MbindWeighted(w, mm.MoveFlag)
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("policy: bw-interleave, workers %s, DWP %.0f%% (user-level=%v)\n", mask, *dwp, *userLevel)
		fmt.Printf("canonical weights: %s\n", fmtWeights(canonical))
		fmt.Printf("applied weights  : %s\n", fmtWeights(w))
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("\nsegment: %d pages (%d MiB)\n", seg.PageCount(), *sizeMB)
	counts := seg.Counts()
	maxCount := int64(1)
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for n, c := range counts {
		bar := strings.Repeat("#", int(40*c/maxCount))
		fmt.Printf("  N%d %7d pages (%5.1f%%) %s\n", n+1, c, 100*float64(c)/float64(seg.PageCount()), bar)
	}
}

func parseWeights(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("bwap-numactl: %d weights for %d nodes", len(parts), n)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bwap-numactl: bad weight %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func fmtWeights(w []float64) string {
	parts := make([]string, len(w))
	for i, v := range w {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, " ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
