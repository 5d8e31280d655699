package core

import (
	"fmt"
	"strconv"
)

// String implements fmt.Stringer: ODR, Interval, NoReg or RVS, the names the
// stream hub's metrics and /debug/odr give its policy.
func (r RenderRule) String() string {
	switch r {
	case RuleODR:
		return "ODR"
	case RuleInterval:
		return "Interval"
	case RuleNoReg:
		return "NoReg"
	case RuleRVS:
		return "RVS"
	}
	return "RenderRule(" + strconv.Itoa(int(r)) + ")"
}

// RVSMaxHz is RVSMax's display refresh rate: the paper maximizes RVS's FPS by
// pairing it with a 240 Hz display (§4.1).
const RVSMaxHz = 240

// Policy is one paper configuration (§4, §6, Table 2): a render rule at a
// frame rate. It is the one table both substrates build from — the simulator
// through regulator.New, the stream hub from its Rule — and its String is
// the configuration's only label.
type Policy struct {
	Rule RenderRule
	// FPS is the QoS goal; 0 maximizes FPS (IntMax, ODRMax) and NoReg
	// ignores it. Under RuleRVS it is the client display's refresh rate.
	FPS float64
}

// String returns the paper label: NoReg; Int30, Int60 or IntMax; RVS30,
// RVS60 or RVSMax (at 200 Hz and more); ODR30, ODR60 or ODRMax.
func (p Policy) String() string {
	var prefix string
	switch p.Rule {
	case RuleNoReg:
		return "NoReg"
	case RuleInterval:
		prefix = "Int"
	case RuleODR:
		prefix = "ODR"
	case RuleRVS:
		if p.FPS >= 200 {
			return "RVSMax"
		}
		return "RVS" + strconv.Itoa(int(p.FPS))
	default:
		return p.Rule.String()
	}
	if p.FPS <= 0 {
		return prefix + "Max"
	}
	return prefix + strconv.Itoa(int(p.FPS))
}

// ParsePolicy returns the configuration a command-line policy name selects
// at fps: noreg, int (or interval), rvs, or odr (also the empty name). For
// rvs, fps is the display refresh rate and 0 means RVSMaxHz. Any other name
// is an error that lists these.
func ParsePolicy(name string, fps float64) (Policy, error) {
	switch name {
	case "noreg":
		return Policy{Rule: RuleNoReg}, nil
	case "int", "interval":
		return Policy{Rule: RuleInterval, FPS: fps}, nil
	case "rvs":
		if fps == 0 {
			fps = RVSMaxHz
		}
		return Policy{Rule: RuleRVS, FPS: fps}, nil
	case "", "odr":
		return Policy{Rule: RuleODR, FPS: fps}, nil
	}
	return Policy{}, fmt.Errorf("unknown policy %q (want noreg, int, interval, rvs or odr)", name)
}
