package machine

import (
	"strings"
	"testing"

	"repro/internal/topo"
)

func TestStandardMachinesValidate(t *testing.T) {
	for _, m := range []Machine{XT4(), XT4SingleCore(), SP2()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestXT4Shape(t *testing.T) {
	m := XT4()
	if m.CoresPerNode != 2 || m.Cx != 1 || m.Cy != 2 || m.BusGroups != 1 {
		t.Errorf("XT4 = %+v", m)
	}
}

func TestCoreRectangle(t *testing.T) {
	// Table 6 / Section 5.3 arrangements.
	for _, tc := range []struct{ cores, cx, cy int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4}, {6, 2, 3}, {12, 3, 4},
	} {
		cx, cy, err := CoreRectangle(tc.cores)
		if err != nil {
			t.Fatalf("CoreRectangle(%d): %v", tc.cores, err)
		}
		if cx != tc.cx || cy != tc.cy {
			t.Errorf("CoreRectangle(%d) = %dx%d, want %dx%d", tc.cores, cx, cy, tc.cx, tc.cy)
		}
	}
	if _, _, err := CoreRectangle(0); err == nil {
		t.Error("CoreRectangle(0) accepted")
	}
}

func TestXT4MultiCore(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8, 16} {
		m, err := XT4MultiCore(cores)
		if err != nil {
			t.Fatalf("XT4MultiCore(%d): %v", cores, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("XT4MultiCore(%d): %v", cores, err)
		}
		if m.Cx*m.Cy != cores {
			t.Errorf("rectangle %dx%d does not cover %d cores", m.Cx, m.Cy, cores)
		}
	}
	if _, err := XT4MultiCore(-2); err == nil {
		t.Error("negative cores accepted")
	}
}

func TestXT4MultiCoreGrouped(t *testing.T) {
	m, err := XT4MultiCoreGrouped(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.BusGroups != 4 || m.CoresPerBus() != 4 {
		t.Errorf("grouped machine = %+v", m)
	}
	if _, err := XT4MultiCoreGrouped(16, 3); err == nil {
		t.Error("16 cores in 3 groups accepted")
	}
	if _, err := XT4MultiCoreGrouped(16, 0); err == nil {
		t.Error("zero groups accepted")
	}
}

func TestValidateRejectsInconsistent(t *testing.T) {
	m := XT4()
	m.Cx = 2 // 2×2 ≠ 2 cores
	if err := m.Validate(); err == nil {
		t.Error("bad rectangle accepted")
	}
	m = XT4()
	m.CoresPerNode = 0
	if err := m.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	m = XT4()
	m.BusGroups = 3
	if err := m.Validate(); err == nil {
		t.Error("2 cores in 3 bus groups accepted")
	}
	m = XT4()
	m.Params.L = -5
	if err := m.Validate(); err == nil {
		t.Error("invalid params accepted")
	}
	m = XT4().WithInterconnect(topo.Spec{Kind: topo.Torus2D, Dims: []int{4}})
	if err := m.Validate(); err == nil {
		t.Error("malformed interconnect accepted")
	}
	m = XT4().WithInterconnect(topo.Spec{Kind: topo.FatTree, LeafRadix: 8})
	if err := m.Validate(); err != nil {
		t.Errorf("fat-tree interconnect rejected: %v", err)
	}
	if !strings.Contains(m.String(), "fattree") {
		t.Errorf("String() = %q misses the fabric", m)
	}
}

func TestString(t *testing.T) {
	s := XT4().String()
	for _, want := range []string{"XT4", "1x2", "2 cores"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
