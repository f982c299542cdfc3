package campaign

import "testing"

// FuzzValidateEntry feeds arbitrary bytes under arbitrary keys to the gate
// of PUT /v1/points/{key}. The seed corpus under testdata/fuzz holds valid
// point and campaign entries, a quarantined point, a truncated entry, a
// wrong key, a stale KeyVersion and a point whose sample and outcome name
// different configurations. ValidateEntry must never panic, and every
// entry it accepts must decode under its key as the kind it reports.
func FuzzValidateEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		k, err := ParseKey(key)
		if err != nil {
			t.Skip()
		}
		kind, err := ValidateEntry(k, data)
		if err != nil {
			return
		}
		switch kind {
		case PointEntry:
			sm, out, err := decodePoint(k, data)
			if err != nil {
				t.Fatalf("accepted point entry does not decode: %v", err)
			}
			if !out.Quarantined && (sm.P != out.P || sm.N != out.N) {
				t.Fatalf("accepted point entry's sample (%d, %d) and outcome (%d, %d) disagree",
					sm.P, sm.N, out.P, out.N)
			}
		case CampaignEntry:
			if _, _, err := Decode(k, data); err != nil {
				t.Fatalf("accepted campaign entry does not decode: %v", err)
			}
		default:
			t.Fatalf("ValidateEntry accepted an entry of unknown kind %d", kind)
		}
	})
}
