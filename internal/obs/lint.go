package obs

import (
	"fmt"
	"regexp"
	"strings"
)

// Naming convention: odr_<subsystem>_<noun>_<unit> for product metrics,
// obs_ for the telemetry system's self-metrics. Counters end in _total;
// histograms end in an explicit unit. go_-prefixed runtime families are
// appended at scrape time and never live in a registry.
var (
	nameRE  = regexp.MustCompile(`^(odr|obs)_[a-z0-9]+(_[a-z0-9]+)*$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// histUnits are the unit suffixes a histogram name must end with.
var histUnits = []string{"_us", "_ms", "_seconds", "_bytes", "_joules", "_ratio"}

// Lint checks every family registered in r against the naming
// convention: names match the odr_/obs_ regex, counters end in _total,
// histograms end in a unit suffix, label names are well-formed, and no
// two families share a help string (copy-paste drift makes /metrics
// lie). It returns one error per violation.
func Lint(r *Registry) []error {
	if r == nil {
		return nil
	}
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	checkName := func(name, kind string) {
		if !nameRE.MatchString(name) {
			bad("%s %q does not match convention %s", kind, name, nameRE)
		}
		if (kind == "counter" || kind == "counter vector") && !strings.HasSuffix(name, "_total") {
			bad("%s %q must end in _total", kind, name)
		}
		if kind == "histogram" {
			ok := false
			for _, u := range histUnits {
				if strings.HasSuffix(name, u) {
					ok = true
					break
				}
			}
			if !ok {
				bad("%s %q must end in a unit suffix (one of %v)", kind, name, histUnits)
			}
		}
	}
	checkLabels := func(name string, labels []string) {
		for _, l := range labels {
			if !labelRE.MatchString(l) {
				bad("family %q label %q does not match %s", name, l, labelRE)
			}
		}
	}

	r.mu.Lock()
	helpOwner := make(map[string]string)
	names := make(map[string]string)
	add := func(name, kind string) {
		checkName(name, kind)
		names[name] = kind
	}
	for name := range r.counters {
		add(name, "counter")
	}
	for name := range r.gauges {
		add(name, "gauge")
	}
	for name := range r.histograms {
		add(name, "histogram")
	}
	for name, v := range r.counterVecs {
		add(name, "counter vector")
		checkLabels(name, v.Labels())
	}
	for name, v := range r.gaugeVecs {
		add(name, "gauge vector")
		checkLabels(name, v.Labels())
	}
	for name, help := range r.help {
		if help == "" {
			continue
		}
		if _, live := names[name]; !live {
			continue
		}
		if prev, dup := helpOwner[help]; dup {
			first, second := prev, name
			if second < first {
				first, second = second, first
			}
			bad("families %q and %q share the help string %q", first, second, help)
		} else {
			helpOwner[help] = name
		}
	}
	r.mu.Unlock()
	return errs
}

// MustLint panics on the first lint violation — the startup guard wired
// into odrserver so a misnamed instrument never ships a release.
func MustLint(r *Registry) {
	if errs := Lint(r); len(errs) > 0 {
		panic(fmt.Sprintf("obs: registry lint failed: %v", errs[0]))
	}
}
