package sdn

import "time"

// NewSwitchStripes builds a switch whose flow table has the given
// stripe count (a power of two), so tests outside the package can
// compare stripe counts.
func NewSwitchStripes(ctrl *Controller, idleTimeout time.Duration, stripes int) *Switch {
	return newSwitch(ctrl, idleTimeout, stripes)
}
