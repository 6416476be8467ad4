package telemetry

import (
	"syscall"
	"time"
)

// CPUTime is the CPU time the process has used, user and system, over
// all its threads. Unlike wall time it does not depend on how many
// threads shared the work or on what else ran on the host, so a parallel
// campaign and a single-threaded model pass can be priced alike.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
