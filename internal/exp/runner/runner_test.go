package runner

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xcache/internal/check"
	"xcache/internal/dsa"
)

// tinySpec is a real but very small simulation (Widx at scale 400 runs
// in a few milliseconds).
func tinySpec() Spec {
	return Spec{DSA: DSAWidx, Kind: dsa.KindXCache, Workload: "TPC-H-22", Scale: 400}
}

func badSpec() Spec {
	return Spec{DSA: "NoSuchDSA", Kind: dsa.KindXCache, Workload: "w", Scale: 1}
}

func TestNewDefaults(t *testing.T) {
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0) workers = %d, want GOMAXPROCS", w)
	}
	if w := New(3).Workers(); w != 3 {
		t.Errorf("New(3) workers = %d", w)
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := New(4).Run(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty Run: %v, %d results", err, len(res))
	}
}

func TestOneExecutesAndCaches(t *testing.T) {
	r := New(2)
	a, err := r.One(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == 0 || !a.Checked {
		t.Fatalf("implausible result: %+v", a)
	}
	b, err := r.One(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached result differs from first execution")
	}
	st := r.Stats()
	if st.Launched != 1 || st.Cached != 1 || st.Failed != 0 {
		t.Fatalf("stats %+v, want 1 launched / 1 cached / 0 failed", st)
	}
	if st.SimCycles != a.Cycles {
		t.Errorf("SimCycles %d, want %d", st.SimCycles, a.Cycles)
	}
	if len(st.Runs) != 1 || st.Runs[0].Key != tinySpec().Key() {
		t.Errorf("per-run stats %+v", st.Runs)
	}
}

func TestFailedEntriesEvictedNotMemoised(t *testing.T) {
	r := New(2)
	_, err1 := r.One(badSpec())
	_, err2 := r.One(badSpec())
	if err1 == nil || err2 == nil {
		t.Fatal("bad spec did not error")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("deterministic failure diverged: %v vs %v", err1, err2)
	}
	// The failure must have been evicted, so the second request
	// re-executes instead of being served the memoised error.
	st := r.Stats()
	if st.Launched != 2 || st.Cached != 0 || st.Failed != 2 || st.Evicted != 2 {
		t.Fatalf("stats %+v, want 2 launched / 0 cached / 2 failed / 2 evicted", st)
	}
	if n := r.cachedFailures(); n != 0 {
		t.Fatalf("%d failed entries survive in the cache", n)
	}
}

func TestRunErrorNamesSpec(t *testing.T) {
	_, err := New(2).Run([]Spec{tinySpec(), badSpec()})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "NoSuchDSA") {
		t.Errorf("error %q does not carry the failing spec key", err)
	}
}

func TestExecuteRejectsUnknowns(t *testing.T) {
	cases := []Spec{
		{DSA: "NoSuchDSA", Kind: dsa.KindXCache, Workload: "w", Scale: 1},
		{DSA: DSAWidx, Kind: dsa.KindXCache, Workload: "no-such-query", Scale: 1},
		{DSA: DSASpArch, Kind: dsa.KindXCache, Workload: "p2p-08", Scale: 1},
		{DSA: DSAGraphPulse, Kind: dsa.KindXCache, Workload: "TPC-H-19", Scale: 1},
		{DSA: DSABTreeIdx, Kind: dsa.KindBaseline, Workload: "zipf", Scale: 1},
	}
	for _, s := range cases {
		if _, err := s.Execute(); err == nil {
			t.Errorf("%s: expected an error", s.Key())
		}
	}
}

// keyLeaf is one field reachable from Spec: its dotted name and the path
// of field indices to it, where -1 steps into element 0 of a slice.
type keyLeaf struct {
	name string
	path []int
}

// keyLeaves lists every field under typ: each scalar, each slice (which
// mutates by growing) and, for a slice of structs, each field of its
// first element.
func keyLeaves(typ reflect.Type, name string, path []int) []keyLeaf {
	step := func(i int) []int { return append(append([]int(nil), path...), i) }
	switch typ.Kind() {
	case reflect.Struct:
		var out []keyLeaf
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			out = append(out, keyLeaves(f.Type, strings.TrimPrefix(name+"."+f.Name, "."), step(i))...)
		}
		return out
	case reflect.Slice:
		out := []keyLeaf{{name, path}}
		if typ.Elem().Kind() == reflect.Struct {
			out = append(out, keyLeaves(typ.Elem(), name+"[0]", step(-1))...)
		}
		return out
	}
	return []keyLeaf{{name, path}}
}

// keyField resolves path in v, giving a slice on the way one zero
// element if it has none.
func keyField(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		if i >= 0 {
			v = v.Field(i)
			continue
		}
		if v.Len() == 0 {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		}
		v = v.Index(0)
	}
	return v
}

// mutateKeyField changes v to a different value. Integers move by 3 so
// that no mutation lands on an alias Key() folds together: DivMul 0
// means 1, and WorkScale 0 means Scale (400 in tinySpec).
func mutateKeyField(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 3)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	default:
		return false
	}
	return true
}

// TestKeyDistinguishesEveryField walks every field of Spec, including
// those of its check.FaultConfig, by reflection: changing any one of them
// must change the canonical key and the content hash. A field added to
// either struct is covered without touching this test.
func TestKeyDistinguishesEveryField(t *testing.T) {
	leaves := keyLeaves(reflect.TypeOf(Spec{}), "", nil)
	for _, l := range leaves {
		base, m := tinySpec(), tinySpec()
		// A field of a slice element is compared against a base that
		// holds the same zero element, so only the field differs.
		keyField(reflect.ValueOf(&base).Elem(), l.path)
		if f := keyField(reflect.ValueOf(&m).Elem(), l.path); !mutateKeyField(f) {
			t.Fatalf("%s: no mutation for a field of kind %s", l.name, f.Kind())
		}
		if m.WorkScale == m.Scale || m.DivMul == 1 {
			t.Fatalf("%s: the mutation hit an alias of the zero value", l.name)
		}
		if m.Key() == base.Key() {
			t.Errorf("mutating %s does not change the canonical key %q", l.name, base.Key())
		}
		if m.Hash() == base.Hash() {
			t.Errorf("mutating %s does not change the content hash", l.name)
		}
	}
	// Probabilities that differ only in their last bit are different
	// specs too, so Key must not round them.
	a, b := tinySpec(), tinySpec()
	a.Faults.DropResp, b.Faults.DropResp = 1e-3, math.Nextafter(1e-3, 1)
	if a.Key() == b.Key() {
		t.Errorf("DropResp %v and %v share the key %q", a.Faults.DropResp, b.Faults.DropResp, a.Key())
	}
	// The walk must reach the nested fault classes, channel episodes
	// included, or it proves nothing about them.
	names := map[string]bool{}
	for _, l := range leaves {
		names[l.name] = true
	}
	for _, want := range []string{"Faults.DelayResp", "Faults.DelayMax", "Faults.ClogQueue", "Faults.Channels", "Faults.Channels[0].Extra"} {
		if !names[want] {
			t.Errorf("field walk missed %s", want)
		}
	}
}

func TestCheckSpecAttachesHarness(t *testing.T) {
	s := tinySpec()
	s.Check = true
	s.Seed = 7
	s.Faults = check.FaultConfig{DropResp: 2e-2}
	r1, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Checked {
		t.Fatal("faulted run failed validation")
	}
	if r1.DroppedFills == 0 {
		t.Fatal("injector never fired: harness not attached")
	}
	r2, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same faulted spec diverged:\n  %+v\n  %+v", r1, r2)
	}
}

func TestStatsSnapshotIsIsolated(t *testing.T) {
	r := New(1)
	if _, err := r.One(tinySpec()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	st.Runs[0].Key = "clobbered"
	if r.Stats().Runs[0].Key != tinySpec().Key() {
		t.Error("Stats() exposes internal run slice")
	}
}

func TestStatsRendering(t *testing.T) {
	r := New(2)
	if _, err := r.One(tinySpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.One(tinySpec()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	s := st.String()
	for _, want := range []string{"2 workers", "1 runs launched", "1 cache hits (50%)"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	if d := st.Detail(); !strings.Contains(d, "TPC-H-22") {
		t.Errorf("detail %q missing run key", d)
	}
}
