package serve

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
)

// Readiness builds a /readyz probe for srv, suitable for
// obs.DebugConfig.Ready and the rule a Replica answers info frames by: the
// server is ready when a model is installed
// and — if maxStaleness > 0 — the checkpoint watcher has installed one
// within the staleness bound. A positive bound therefore requires the
// watcher: a model loaded statically at startup carries no install
// timestamp, and a fleet configured with -max-staleness is declaring that
// it must be following a live training run. clock defaults to real time;
// tests inject a checkpoint.FakeClock.
func Readiness(srv *Server, maxStaleness time.Duration, clock checkpoint.Clock) func() error {
	if clock == nil {
		clock = checkpoint.SystemClock
	}
	return func() error {
		if srv.Current() == nil {
			return fmt.Errorf("no model installed")
		}
		if maxStaleness <= 0 {
			return nil
		}
		last, ok := srv.Telemetry().LastSwap()
		if !ok {
			return fmt.Errorf("staleness bound %s configured but no checkpoint installed yet", maxStaleness)
		}
		if age := clock.Now().Sub(last); age > maxStaleness {
			return fmt.Errorf("model stale: last checkpoint installed %s ago (bound %s)", age, maxStaleness)
		}
		return nil
	}
}
