package sim

import (
	"fmt"
	"testing"

	"hermes/internal/units"
)

// BenchmarkSwitch is a park/wake ping-pong between two processes; one
// op is one process switch (a Wake plus the partner's park).
func BenchmarkSwitch(b *testing.B) {
	rounds := max(b.N/2, 1)
	e := NewEngine()
	var ping, pong *Proc
	done := false
	ping = e.Go("ping", func(p *Proc) {
		for i := range rounds {
			p.ParkUntilWake()
			done = i == rounds-1
			pong.Wake()
		}
	})
	pong = e.Go("pong", func(p *Proc) {
		for !done {
			ping.Wake()
			p.ParkUntilWake()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleep is one process sleeping in a loop; one op is one
// timer wake.
func BenchmarkSleep(b *testing.B) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for range b.N {
			p.Sleep(units.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkQueue100Procs runs 100 processes with mixed sleep lengths,
// so every op is a wake-queue pop and reinsert at depth; one op is
// one timer wake.
func BenchmarkQueue100Procs(b *testing.B) {
	const procs = 100
	e := NewEngine()
	for i := range procs {
		n := b.N / procs
		if i < b.N%procs {
			n++
		}
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := range n {
				p.Sleep(units.Time(1+(i*7+k*13)%23) * units.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
