// Package sim is a deterministic discrete-event engine. Simulated
// activities (workers, the DAQ sampler) run as processes, each an
// iter.Pull coroutine that the engine resumes one at a time, so
// execution is single-threaded and fully reproducible — the event
// order depends only on (virtual time, priority, schedule order).
//
// A process parks either until a scheduled virtual time (Sleep /
// WaitUntil) or indefinitely (ParkUntilWake), and any running process
// may wake a parked one (Wake), replacing its pending timer. This
// early-wake primitive is what lets the scheduler re-rate in-flight
// task work when a DVFS transition commits mid-task.
//
// A process has at most one pending wake. The engine keeps them in a
// 4-ary heap of processes, each holding its own heap index, so a
// reschedule sifts the entry in place, a cancel removes it, and a
// switch allocates nothing.
package sim
