package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"bwap/internal/workload"
)

// ErrBadFaultPlan wraps every plan-validity failure from Validate and
// LoadFaultPlan (bad JSON, unknown kinds, negative parameters, impossible
// schedules). I/O errors reading a plan file are not wrapped: they say
// nothing about the plan itself. Callers branch with errors.Is.
var ErrBadFaultPlan = errors.New("fleet: invalid fault plan")

// FaultPlan is a deterministic machine-lifecycle schedule: a set of
// crash/drain/recover/machine-add specs that the fleet materializes into
// lifecycle events at construction, exactly the way SubmitStream
// materializes arrival processes. Two runs with the same plan, seed and
// job stream produce bit-identical event logs — a failure scenario is a
// replayable experiment, not a one-off.
//
// Jitter noise comes from a splitmix64 stream derived from the plan seed
// and the spec index, so editing one spec never shifts another spec's
// occurrence times.
type FaultPlan struct {
	// Seed drives the per-spec jitter streams. Zero falls back to the
	// fleet's Config.Seed.
	Seed uint64 `json:"seed,omitempty"`
	// Faults are materialized in order; each spec owns its jitter stream.
	Faults []FaultSpec `json:"faults"`
}

// Fault kinds accepted by FaultSpec.Kind.
const (
	// FaultCrash kills the machine: in-flight jobs die and re-enter
	// admission with capped exponential backoff until their retry budget
	// runs out (then they fail terminally). Progress since the last
	// graceful evacuation is lost.
	FaultCrash = "crash"
	// FaultDrain stops admission to the machine and gracefully evacuates
	// its running jobs: each job's progress is snapshotted and the
	// remainder resubmitted through admission.
	FaultDrain = "drain"
	// FaultRecover brings a crashed or drained machine back up and
	// backfills the queue against the restored capacity.
	FaultRecover = "recover"
	// FaultMachineAdd grows the fleet by one machine per occurrence
	// (topology from Config.NewMachine at the new index, engine clock
	// caught up to the lockstep tick count).
	FaultMachineAdd = "machine-add"
)

// FaultSpec is one line of a plan: a kind, a target machine set and an
// occurrence schedule.
type FaultSpec struct {
	// Kind is one of crash, drain, recover, machine-add.
	Kind string `json:"kind"`
	// Machines are the target machine ids; empty means every machine
	// present at boot. Ignored by machine-add (each occurrence creates the
	// next id). Targets may name machines a machine-add occurrence creates
	// later; the event errors at fire time if the machine does not exist
	// yet.
	Machines []int `json:"machines,omitempty"`
	// At is the first occurrence time in simulated seconds.
	At float64 `json:"at"`
	// Every repeats the occurrence with this period (0 = once per target).
	Every float64 `json:"every,omitempty"`
	// Count is the number of occurrences per target (default 1; requires
	// Every when > 1).
	Count int `json:"count,omitempty"`
	// Stagger offsets successive targets by this many seconds — a rolling
	// restart is one drain spec with a stagger and a RecoverAfter.
	Stagger float64 `json:"stagger,omitempty"`
	// Jitter adds uniform [0, Jitter) noise per occurrence from the plan's
	// splitmix64 stream.
	Jitter float64 `json:"jitter,omitempty"`
	// RecoverAfter schedules a matching recover this many seconds after
	// each crash/drain occurrence (0 = the machine stays down).
	RecoverAfter float64 `json:"recover_after,omitempty"`
}

// faultEvent is one materialized occurrence.
type faultEvent struct {
	t    float64
	kind eventKind
	mach int // -1 for machine-add
}

// faultKind maps a spec kind to its event kind.
func faultKind(kind string) (eventKind, error) {
	switch kind {
	case FaultCrash:
		return evCrash, nil
	case FaultDrain:
		return evDrain, nil
	case FaultRecover:
		return evRecover, nil
	case FaultMachineAdd:
		return evMachineAdd, nil
	}
	return 0, fmt.Errorf("fleet: unknown fault kind %q", kind)
}

// Validate checks the plan against a boot-time machine count. Lifecycle
// targets must be existing machines or machines the plan itself adds
// (machine-add occurrences allocate ids machines, machines+1, ... in
// event-time order, so a forward reference is only provably valid when the
// id stays below machines + total adds).
func (p *FaultPlan) Validate(machines int) error {
	adds := 0
	for _, s := range p.Faults {
		if s.Kind == FaultMachineAdd {
			n := s.Count
			if n <= 0 {
				n = 1
			}
			adds += n
		}
	}
	for i, s := range p.Faults {
		kind, err := faultKind(s.Kind)
		if err != nil {
			return fmt.Errorf("%w: fault %d: %v", ErrBadFaultPlan, i, err)
		}
		if s.At < 0 || s.Every < 0 || s.Stagger < 0 || s.Jitter < 0 || s.RecoverAfter < 0 {
			return fmt.Errorf("%w: fault %d (%s): negative time parameter", ErrBadFaultPlan, i, s.Kind)
		}
		if s.Count < 0 {
			return fmt.Errorf("%w: fault %d (%s): negative count %d", ErrBadFaultPlan, i, s.Kind, s.Count)
		}
		if s.Count > 1 && s.Every == 0 {
			return fmt.Errorf("%w: fault %d (%s): count %d needs a period", ErrBadFaultPlan, i, s.Kind, s.Count)
		}
		// A repeating crash/drain whose scheduled recovery can land on or
		// past the next occurrence (jitter counts: it delays the fault, and
		// the paired recover rides RecoverAfter behind it) would re-fault a
		// machine that never came back up — reject the overlap rather than
		// materialize a lifecycle the plan author cannot have meant.
		if s.Count > 1 && s.RecoverAfter > 0 && (kind == evCrash || kind == evDrain) &&
			s.RecoverAfter+s.Jitter >= s.Every {
			return fmt.Errorf("%w: fault %d (%s): recover_after %g + jitter %g overlaps the next occurrence (every %g)",
				ErrBadFaultPlan, i, s.Kind, s.RecoverAfter, s.Jitter, s.Every)
		}
		if kind == evMachineAdd {
			continue
		}
		if machines+adds <= 0 {
			return fmt.Errorf("%w: fault %d (%s): no machines to target", ErrBadFaultPlan, i, s.Kind)
		}
		for _, m := range s.Machines {
			if m < 0 || m >= machines+adds {
				return fmt.Errorf("%w: fault %d (%s): machine %d out of range (fleet of %d, %d planned adds)",
					ErrBadFaultPlan, i, s.Kind, m, machines, adds)
			}
		}
	}
	return nil
}

// materialize expands the plan into a deterministic event list, sorted by
// (time, kind, machine, spec order) — the push order, and therefore the
// sequence-number assignment, is pinned.
func (p *FaultPlan) materialize(machines int, fallbackSeed uint64) ([]faultEvent, error) {
	if err := p.Validate(machines); err != nil {
		return nil, err
	}
	seed := p.Seed
	if seed == 0 {
		seed = fallbackSeed
	}
	var evs []faultEvent
	for i, s := range p.Faults {
		kind, _ := faultKind(s.Kind)
		rng := workload.NewRand(seed + uint64(i)*0x9e3779b97f4a7c15)
		count := s.Count
		if count <= 0 {
			count = 1
		}
		targets := s.Machines
		if kind == evMachineAdd {
			targets = []int{-1}
		} else if len(targets) == 0 {
			targets = make([]int, machines)
			for m := range targets {
				targets[m] = m
			}
		}
		for ti, m := range targets {
			for k := 0; k < count; k++ {
				t := s.At + float64(ti)*s.Stagger + float64(k)*s.Every
				if s.Jitter > 0 {
					t += s.Jitter * rng.Float64()
				}
				evs = append(evs, faultEvent{t: t, kind: kind, mach: m})
				if s.RecoverAfter > 0 && (kind == evCrash || kind == evDrain) {
					evs = append(evs, faultEvent{t: t + s.RecoverAfter, kind: evRecover, mach: m})
				}
			}
		}
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		if evs[a].kind != evs[b].kind {
			return evs[a].kind < evs[b].kind
		}
		return evs[a].mach < evs[b].mach
	})
	return evs, nil
}

// LoadFaultPlan reads a JSON FaultPlan from disk (the bwapd -fault-plan
// flag). Validation happens at fleet construction, when the machine count
// is known.
func LoadFaultPlan(path string) (*FaultPlan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p FaultPlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadFaultPlan, path, err)
	}
	if len(p.Faults) == 0 {
		return nil, fmt.Errorf("%w: %s: no faults", ErrBadFaultPlan, path)
	}
	return &p, nil
}
