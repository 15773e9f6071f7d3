package eval

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/citygen"
	"repro/internal/core"
	"repro/internal/metrics"
)

// TestCityOneCustomizationPerPublish pins the NewCityOpts wiring of the
// public-metric planners on a hierarchy backend: Plateaus and
// Dissimilarity share one weight provider, so a single publish to the
// public store costs exactly one customization, recorded once under
// Plateaus, and after Router.Sync both planners serve the store's head.
func TestCityOneCustomizationPerPublish(t *testing.T) {
	p := citygen.Copenhagen()
	p.Rows, p.Cols = 16, 16
	p.Motorway.Present = false
	c, err := NewCityOpts(p, 5, core.Options{TreeBackend: core.TreeCH})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.Router.SetMetrics(core.NewMetrics(reg, "Copenhagen"))

	c.PublicStore.Ban(0)
	c.Router.Sync()

	head := c.PublicStore.Latest().Version()
	for _, i := range []int{1, 2} {
		if v := c.Planners[i].(core.VersionedPlanner).WeightsVersion(); v != head {
			t.Errorf("%s serves version %d after Sync, store head is %d", c.Planners[i].Name(), v, head)
		}
	}
	if st := c.Router.HierarchyStatuses(); st[1].Kind == "" || st[2] != (core.HierarchyStatus{}) {
		t.Errorf("hierarchy statuses %+v: want the shared hierarchy reported under Plateaus only", st)
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "routing_customize_seconds_count{") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		if n > 0 && !strings.Contains(line, `planner="Plateaus"`) {
			t.Errorf("customization recorded outside Plateaus: %s", line)
		}
		total += n
	}
	if total != 1 {
		t.Fatalf("one publish recorded %v customizations, want 1:\n%s", total, sb.String())
	}
}
