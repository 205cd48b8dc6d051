package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"iotsentinel/internal/core"
	"iotsentinel/internal/fingerprint"
)

// The files under testdata/compat were written before packet vectors
// became packed words (3 device types, fixed seeds): model.json by
// core.Identifier.Save, state/journal.wal by Store.Append of one
// quarantine event per probe fingerprint, and want.json with the
// model's SHA-256 and each probe's identification at that time.
type compatWant struct {
	ModelSHA256     string `json:"modelSHA256"`
	Identifications []struct {
		Seq           uint64             `json:"seq"`
		Type          string             `json:"type"`
		Matches       []core.TypeID      `json:"matches"`
		Scores        map[string]float64 `json:"scores"`
		Discriminated bool               `json:"discriminated"`
		EditDistances int                `json:"editDistances"`
	} `json:"identifications"`
}

// TestOnDiskFormatsPinned loads the checked-in model and journal,
// identifies every journaled fingerprint exactly as recorded, and
// re-serializes the model to the same bytes and SHA-256.
func TestOnDiskFormatsPinned(t *testing.T) {
	dir := filepath.Join("testdata", "compat")
	raw, err := os.ReadFile(filepath.Join(dir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want compatWant
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	model, err := os.ReadFile(filepath.Join(dir, "model.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(model); hex.EncodeToString(sum[:]) != want.ModelSHA256 {
		t.Fatalf("checked-in model.json does not match its recorded SHA-256")
	}
	id, err := core.LoadIdentifier(bytes.NewReader(model))
	if err != nil {
		t.Fatalf("LoadIdentifier: %v", err)
	}
	var resaved bytes.Buffer
	if err := id.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), model) {
		t.Fatalf("re-saved model differs from the checked-in bytes (%d vs %d bytes)", resaved.Len(), len(model))
	}
	if sum := sha256.Sum256(resaved.Bytes()); hex.EncodeToString(sum[:]) != want.ModelSHA256 {
		t.Fatalf("re-saved model SHA-256 %x, want %s", sum, want.ModelSHA256)
	}

	// Open a copy: Open creates the models directory and appends to the
	// journal's tail.
	state := t.TempDir()
	wal, err := os.ReadFile(filepath.Join(dir, "state", journalName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(state, journalName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := Open(state, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if rec.Degraded || len(rec.Events) != len(want.Identifications) {
		t.Fatalf("journal recovered %d events (degraded=%v), want %d", len(rec.Events), rec.Degraded, len(want.Identifications))
	}
	discriminated := 0
	for i, ev := range rec.Events {
		w := want.Identifications[i]
		fp, err := fingerprint.FromRows(ev.Fingerprint)
		if err != nil {
			t.Fatalf("event %d: %v", ev.Seq, err)
		}
		res := id.Identify(fp)
		if ev.Seq != w.Seq || string(res.Type) != w.Type || res.Discriminated != w.Discriminated ||
			res.EditDistances != w.EditDistances || len(res.Matches) != len(w.Matches) {
			t.Fatalf("event %d: identified %+v, recorded %+v", ev.Seq, res, w)
		}
		for j := range w.Matches {
			if res.Matches[j] != w.Matches[j] {
				t.Fatalf("event %d: matches %v, recorded %v", ev.Seq, res.Matches, w.Matches)
			}
		}
		if len(res.Scores) != len(w.Scores) {
			t.Fatalf("event %d: scores %v, recorded %v", ev.Seq, res.Scores, w.Scores)
		}
		for ty, s := range w.Scores {
			if res.Scores[core.TypeID(ty)] != s {
				t.Fatalf("event %d: scores %v, recorded %v", ev.Seq, res.Scores, w.Scores)
			}
		}
		if w.Discriminated {
			discriminated++
		}
	}
	if discriminated == 0 {
		t.Fatal("no journaled probe exercises discrimination")
	}
}
