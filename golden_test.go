package hermes_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"hermes"
	"hermes/internal/fault"
)

// Golden digests of three Sim runs. They pin the simulator's exact
// behaviour across engine rewrites: any change in event order,
// virtual timestamps, energy accounting or report formatting moves a
// digest. Update a constant only for a change that is meant to alter
// simulated behaviour, and say so in the change log.
const (
	goldenSubmitTrace  = "0f344f60d6b9d8a049ef7a2066926e1983d7f39eb031fe6ff8f2a5654247fa76"
	goldenClusterCrash = "eed93a4080bdefd56935ab04dfec28f776a9b88e76c30e8bae17a18e81ebcc28"
	goldenSingleShot   = "b4b567599d3ef6bf142809207102c0157fa85e16fbd922ca130339abf6dd2f50"
)

// digest hashes the formatted reports and observer event stream of
// one run.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(v any) { fmt.Fprintf(d.h, "%+v\n", v) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s digest = %s, want %s: simulated behaviour changed", name, got, want)
	}
}

// TestGoldenSubmitTrace pins a small overlapping trace on one Pool.
func TestGoldenSubmitTrace(t *testing.T) {
	reports, events := traceRun(t, 100*hermes.Microsecond, 5)
	d := newDigest()
	for _, r := range reports {
		d.add(r)
	}
	for _, e := range events {
		d.add(e)
	}
	checkGolden(t, "SubmitTrace", d.sum(), goldenSubmitTrace)
}

// TestGoldenClusterCrash pins a 4-machine power-of-two-choices fleet
// replaying a trace under the compiled "crash" fault plan: placement,
// eviction, seeded retries and the availability ledger.
func TestGoldenClusterCrash(t *testing.T) {
	const machines = 4
	horizon := 2 * hermes.Millisecond
	plan, err := fault.Compile("crash", 7, machines, horizon)
	if err != nil {
		t.Fatal(err)
	}
	var events []hermes.Event
	c, err := hermes.NewCluster(
		hermes.WithMachines(machines),
		hermes.WithPlacement(hermes.PlacementPowerOfChoices(2)),
		hermes.WithSpec(hermes.SystemB()),
		hermes.WithWorkers(2),
		hermes.WithMode(hermes.Unified),
		hermes.WithSeed(7),
		hermes.WithFaults(plan...),
		hermes.WithObserver(hermes.ObserverFunc(func(e hermes.Event) {
			events = append(events, e) // sim observer: single engine goroutine
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := leafWorkload(32)
	arrivals := make([]hermes.Arrival, 24)
	for i := range arrivals {
		arrivals[i] = hermes.Arrival{At: hermes.Time(i) * horizon / hermes.Time(len(arrivals)), Task: root}
	}
	jobs, err := c.SubmitTrace(context.Background(), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	for _, j := range jobs {
		// A job lost for good is part of the pinned behaviour too.
		r, err := j.Wait()
		d.add(r)
		d.add(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		d.add(e)
	}
	d.add(c.ClusterStats())
	checkGolden(t, "cluster crash", d.sum(), goldenClusterCrash)
}

// TestGoldenSingleShot pins one legacy single-shot run.
func TestGoldenSingleShot(t *testing.T) {
	d := newDigest()
	root, _ := leafWorkload(64)
	r := hermes.Run(hermes.Config{
		Spec:     hermes.SystemB(),
		Workers:  4,
		Mode:     hermes.Unified,
		Seed:     3,
		Observer: hermes.ObserverFunc(func(e hermes.Event) { d.add(e) }),
	}, root)
	d.add(r)
	checkGolden(t, "single-shot", d.sum(), goldenSingleShot)
}
