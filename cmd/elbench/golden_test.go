package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoGolden is the committed golden store, relative to this package.
const repoGolden = "../../testdata/golden"

// fastIDs are the artifacts cheap enough for the -short tier-1 lane
// (analytic or fluid-only, each well under ~1.5s on one core); the full
// run verifies every registered experiment.
var fastIDs = []string{
	"table1", "table7", "table8",
	"figure1", "figure3", "figure4", "figure7", "figure8",
}

// TestGoldenArtifacts is the enforced form of the repo's byte-identity
// claim: regenerating any artifact at seed 1 must reproduce the
// committed testdata/golden bytes exactly, so a PR that silently
// changes an artifact fails tier-1 instead of rotting the goldens. In
// -short mode only the cheap subset runs; the full test (and the CI
// golden job, at -parallel 1 and 4) covers every registered experiment
// and fails on a missing or orphaned golden.
func TestGoldenArtifacts(t *testing.T) {
	if !testing.Short() {
		if err := run([]string{"-verify", "-golden", repoGolden, "-parallel", "2"}, io.Discard); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, id := range fastIDs {
		if err := run([]string{"-verify", "-id", id, "-golden", repoGolden, "-parallel", "2"}, io.Discard); err != nil {
			t.Errorf("golden drift: %v", err)
		}
	}
}

// TestGoldenVerifyDetectsDrift closes the loop on the golden machinery
// itself: -update writes a store -verify accepts, and a corrupted or
// missing golden file makes -verify fail loudly.
func TestGoldenVerifyDetectsDrift(t *testing.T) {
	dir := t.TempDir()
	args := func(mode string) []string {
		return []string{mode, "-id", "figure7", "-golden", dir}
	}
	if err := run(args("-update"), io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(args("-verify"), io.Discard); err != nil {
		t.Fatalf("freshly updated store does not verify: %v", err)
	}
	path := filepath.Join(dir, "figure7.txt")
	if err := os.WriteFile(path, []byte("corrupted\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(args("-verify"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "figure7") {
		t.Fatalf("corrupted golden accepted: %v", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	err = run(args("-verify"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "missing golden") {
		t.Fatalf("missing golden accepted: %v", err)
	}
}

// TestGoldenOrphanDetection: a full verify/update run polices the
// store itself — a golden file left behind by a renamed or deleted
// experiment fails -verify and is removed by -update, while -id subset
// runs leave unrelated goldens alone. Exercised directly on synthetic
// artifacts so it stays instant.
func TestGoldenOrphanDetection(t *testing.T) {
	dir := t.TempDir()
	arts := []artifact{{id: "table1", text: "A\n"}}
	if err := updateGolden(io.Discard, arts, dir, true); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "stale.txt")
	if err := os.WriteFile(stale, []byte("left behind\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Subset runs must tolerate goldens they did not regenerate...
	if err := verifyGolden(io.Discard, arts, dir, false); err != nil {
		t.Fatalf("subset verify rejected an unrelated golden: %v", err)
	}
	// ...but a full run rejects the orphan.
	err := verifyGolden(io.Discard, arts, dir, true)
	if err == nil || !strings.Contains(err.Error(), "orphaned") {
		t.Fatalf("full verify accepted an orphaned golden: %v", err)
	}
	// A full -update sweeps it, after which full verify is clean.
	if err := updateGolden(io.Discard, arts, dir, true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("full update left the orphan behind (stat err: %v)", err)
	}
	if err := verifyGolden(io.Discard, arts, dir, true); err != nil {
		t.Fatal(err)
	}
}

// TestModeFlagConflicts: the output modes are mutually exclusive, -csv
// is plain-text only, and the golden store is pinned at seed 1.
func TestModeFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-verify", "-update"},
		{"-csv", "-verify"},
		{"-csv", "-update"},
		{"-verify", "-seed", "2"},
		{"-update", "-seed", "2"},
		{"-list", "-verify"}, // -list is a mode like the others...
		{"-list", "-update"},
		{"-list", "-id", "table1"}, // ...and rejects generation flags
		{"-list", "-csv"},
		{"-list", "-parallel", "2"},
		{"-shards", "4", "-id", "table10", "-verify"},
		{"-shards", "4", "-list"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
