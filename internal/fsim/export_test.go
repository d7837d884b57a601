package fsim

import (
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// RefFirstDetection exposes refFirstDetection to the external tests.
func RefFirstDetection(c *netlist.Circuit, f fault.Fault, patterns []bitvec.Vector) int {
	return refFirstDetection(c, f, patterns)
}
