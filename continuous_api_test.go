package validity

import "testing"

func TestContinuousQueryAPI(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Topology: Gnutella, Hosts: 400, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := net.ContinuousQuery(ContinuousConfig{
		Aggregate: Max,
		Windows:   3,
		Failures:  60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("windows = %d", len(rs))
	}
	for _, r := range rs {
		if !r.Valid {
			t.Fatalf("window %d: %v outside [%v,%v]", r.Index, r.Value, r.Lower, r.Upper)
		}
		if r.End <= r.Start {
			t.Fatalf("window %d: degenerate interval [%d,%d)", r.Index, r.Start, r.End)
		}
	}
	if rs[2].AliveAtStart >= rs[0].AliveAtStart+1 {
		t.Fatal("population did not shrink under churn")
	}
}

func TestContinuousQueryValidation(t *testing.T) {
	net, _ := NewNetwork(NetworkConfig{Topology: Random, Hosts: 50, Seed: 12})
	if _, err := net.ContinuousQuery(ContinuousConfig{Aggregate: Max, Windows: 0}); err == nil {
		t.Fatal("zero windows accepted")
	}
	if _, err := net.ContinuousQuery(ContinuousConfig{Aggregate: Max, Windows: 2, Hq: 99}); err == nil {
		t.Fatal("bad hq accepted")
	}
	if _, err := net.ContinuousQuery(ContinuousConfig{Aggregate: Max, Windows: 2, Failures: 50}); err == nil {
		t.Fatal("failing everyone accepted")
	}
	if _, err := net.ContinuousQuery(ContinuousConfig{Aggregate: Aggregate(42), Windows: 2}); err == nil {
		t.Fatal("unknown aggregate accepted")
	}
	if _, err := net.ContinuousQuery(ContinuousConfig{Aggregate: Max, Windows: 2,
		Schedule: []Failure{{H: 999, T: 1}}}); err == nil {
		t.Fatal("bad schedule host accepted")
	}
}

func TestProbeDiameterAPI(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Topology: Grid, Hosts: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ecc, rec, err := net.ProbeDiameter(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corner of a 10×10 8-neighbor grid: eccentricity 9.
	if ecc != 9 || rec != 11 {
		t.Fatalf("ecc=%d rec=%d, want 9/11", ecc, rec)
	}
	if _, _, err := net.ProbeDiameter(-1, 0); err == nil {
		t.Fatal("bad hq accepted")
	}
	// The recommended D̂ makes subsequent queries work end-to-end.
	res, err := net.Query(QueryConfig{Aggregate: Max, Protocol: Wildfire, DHat: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatal("query with probed D̂ invalid")
	}
}
