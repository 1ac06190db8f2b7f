package race_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
	"repro/race"
)

// TestVindicationGolden pins the exact bytes of vindicating reports. The
// witness search draws from a seeded RNG, so the hashes move if the draw
// order, the candidate enumeration, the restart budget or any witness
// changes. A change that alters verdicts on purpose updates the hashes and
// says so.
func TestVindicationGolden(t *testing.T) {
	cases := []struct {
		prog string
		div  int
		seed int64
		sum  string
	}{
		{"xalan", 16000, 1, "55631f6ae72cddd113303d5cce9b09789884805afeb74e08126c9031f6a6371d"},
		{"xalan", 16000, 2, "fce41534b900052f38baac28b0811cb2362fa3599e3587b94fc41d8e0e866c2c"},
		{"xalan", 16000, 3, "47a3e5cd69d5a67f3af1dc28dd4022d5cc5bfd3696b2ef490fc4e8248b88644c"},
		{"pmd", 80000, 3, "61a3623a3917953d7eb3d8f8f6e62da3a597b2c8ea685eb770599ad74593b75d"},
	}
	verified := 0
	for _, c := range cases {
		p, _ := workload.ProgramByName(c.prog)
		tr := p.Generate(c.div, c.seed)
		eng, err := race.NewEngine(race.WithVindication())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.FeedTrace(tr); err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		doc, err := rep.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(doc, []byte(`"vindications"`)) {
			t.Fatalf("%s 1/%d seed %d: report carries no vindications", c.prog, c.div, c.seed)
		}
		verified += bytes.Count(doc, []byte(`"vindicated":true`))
		h := sha256.Sum256(doc)
		if got := hex.EncodeToString(h[:]); got != c.sum {
			t.Errorf("%s 1/%d seed %d: report sha256 %s, want %s", c.prog, c.div, c.seed, got, c.sum)
		}
	}
	if verified == 0 {
		t.Error("no report carries a verified witness, so the hashes pin no witness")
	}
}
