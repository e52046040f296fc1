package experiments

import (
	"fmt"
	"strings"
)

// The package-level registry lists every experiment in the canonical order
// of the paper's evaluation — the order `siloz bench -exp all` runs and
// renders them. Adding an experiment is one file (its parameter resolver and
// body) plus one line here; no command and no shared struct changes.
var registry = []Experiment{
	define("table3", securityConfig, table3Exp),
	define("ept", securityConfig, eptExp),
	define("fig4", perfConfig, fig4Exp),
	define("fig5", perfConfig, fig5Exp),
	define("fig67", perfConfig, fig67Exp),
	define("blp", perfConfig, blpExp),
	define("overhead", perfConfig, overheadExp),
	fixed("softrefresh", softRefreshExp),
	fixed("remaps", remapsExp),
	define("gbpages", perfConfig, gbPagesExp),
	fixed("ecc", eccExp),
	fixed("fragmentation", fragmentationExp),
	define("migration", migrationConfig, migrationExp),
	define("ballooning", balloonConfig, ballooningExp),
	define("hotplug", hotplugConfig, hotplugExp),
	fixed("ddr5", ddr5Exp),
	fixed("drama", dramaExp),
	define("actrates", actRatesConfig, actRatesExp),
	fixed("zebram", zebramExp),
	define("ept-relocation", eptRelocConfig, eptRelocExp),
	define("fleet-churn", fleetConfig, fleetChurnExp),
	define("lifecycle-attack", lifecycleAttackConfig, lifecycleAttackExp),
	define("mitigation-matrix", mitigationMatrixConfig, mitigationMatrixExp),
	define("serving-slo", servingSLOConfig, servingSLOExp),
}

// Names returns the registered experiment names in canonical order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// Get looks an experiment up by name.
func Get(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Select binds the experiments spec names — "all", one name, or a
// comma-separated list — to the parameters the shared flags resolve to. An
// unknown name fails the whole selection, before any experiment has run.
func Select(spec string, f Flags) ([]Job, error) {
	names := Names()
	if spec != "all" {
		names = strings.Split(spec, ",")
	}
	jobs := make([]Job, len(names))
	for i, name := range names {
		e, ok := Get(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", strings.TrimSpace(name))
		}
		jobs[i] = Job{Experiment: e, Params: e.Resolve(f)}
	}
	return jobs, nil
}
