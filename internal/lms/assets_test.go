package lms

import "testing"

func TestAssetKindSensitivity(t *testing.T) {
	if !ExamQuestions.Sensitive() || !Grades.Sensitive() {
		t.Fatal("exam questions and grades must be sensitive")
	}
	if CourseContent.Sensitive() || Submissions.Sensitive() {
		t.Fatal("content and submissions must not be sensitive")
	}
}

func TestAssetStoreInventory(t *testing.T) {
	st := NewAssetStore(10, 100)
	// 10 courses * 2 assets + 100 students * 2 assets.
	if st.Len() != 220 {
		t.Fatalf("Len = %d, want 220", st.Len())
	}
	// Everything starts private.
	if st.Count(OnPrivate) != 220 || st.Count(OnPublic) != 0 {
		t.Fatalf("initial placement wrong: private=%d public=%d",
			st.Count(OnPrivate), st.Count(OnPublic))
	}
}

func TestAssetStorePlacementPolicies(t *testing.T) {
	st := NewAssetStore(5, 50)
	st.PlaceAll(OnPublic)
	if st.Count(OnPublic) != st.Len() {
		t.Fatal("PlaceAll(OnPublic) incomplete")
	}
	if st.SensitiveShare(OnPublic) != 1 {
		t.Fatalf("SensitiveShare(public) = %v, want 1", st.SensitiveShare(OnPublic))
	}

	st.PlaceSensitive(OnPrivate, OnPublic)
	if st.SensitiveCount(OnPublic) != 0 {
		t.Fatal("PlaceSensitive left sensitive assets public")
	}
	// 5 exam bundles + 50 grade records pinned private.
	if got := st.SensitiveCount(OnPrivate); got != 55 {
		t.Fatalf("SensitiveCount(private) = %d, want 55", got)
	}
	if st.SensitiveShare(OnPrivate) != 1 {
		t.Fatal("SensitiveShare(private) != 1 after pinning")
	}
	// Bulk content is on the public side.
	if st.Count(OnPublic) != st.Len()-55 {
		t.Fatalf("public count = %d", st.Count(OnPublic))
	}
}

func TestAssetStoreBytes(t *testing.T) {
	st := NewAssetStore(1, 1)
	// 2e9 (content) + 20e6 (exam) + 1e6 (grade) + 50e6 (submissions).
	want := 2e9 + 20e6 + 1e6 + 50e6
	if got := st.BytesAt(OnPrivate); got != want {
		t.Fatalf("BytesAt = %v, want %v", got, want)
	}
	if st.BytesAt(OnPublic) != 0 {
		t.Fatal("public bytes should be 0")
	}
}

func TestAssetStoreNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewAssetStore(-1, 0)
}

func TestAssetStoreEmptySensitiveShare(t *testing.T) {
	st := NewAssetStore(0, 0)
	if st.SensitiveShare(OnPublic) != 0 {
		t.Fatal("empty store SensitiveShare != 0")
	}
}

func TestLocationAndKindStrings(t *testing.T) {
	if OnPublic.String() != "public" || OnPrivate.String() != "private" {
		t.Fatal("location strings wrong")
	}
	if Location(9).String() != "Location(9)" {
		t.Fatal("unknown location string wrong")
	}
	kinds := map[AssetKind]string{
		CourseContent: "course-content", ExamQuestions: "exam-questions",
		Grades: "grades", Submissions: "submissions",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	if AssetKind(9).String() != "AssetKind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

// TestAssetStoreMatchesPerAssetSums checks every per-kind total with ==
// against a per-asset loop over the same inventory: each stored size is
// an integer and every total stays below 2^53, so the per-kind products
// must equal the asset-by-asset float sums bit for bit.
func TestAssetStoreMatchesPerAssetSums(t *testing.T) {
	placements := []struct {
		name  string
		place func(*AssetStore)
		at    func(AssetKind) Location
	}{
		{"initial", func(*AssetStore) {}, func(AssetKind) Location { return OnPrivate }},
		{"all-public", func(st *AssetStore) { st.PlaceAll(OnPublic) },
			func(AssetKind) Location { return OnPublic }},
		{"all-private", func(st *AssetStore) { st.PlaceAll(OnPrivate) },
			func(AssetKind) Location { return OnPrivate }},
		{"sensitive-private", func(st *AssetStore) { st.PlaceSensitive(OnPrivate, OnPublic) },
			func(k AssetKind) Location {
				if k.Sensitive() {
					return OnPrivate
				}
				return OnPublic
			}},
		{"sensitive-public", func(st *AssetStore) { st.PlaceSensitive(OnPublic, OnPrivate) },
			func(k AssetKind) Location {
				if k.Sensitive() {
					return OnPublic
				}
				return OnPrivate
			}},
	}
	sizes := []struct{ courses, students int }{
		{0, 0}, {1, 0}, {1, 1}, {12001, 300000}, {20001, 500000},
	}
	for _, sz := range sizes {
		for _, pl := range placements {
			st := NewAssetStore(sz.courses, sz.students)
			pl.place(st)

			// The reference: one asset at a time, in inventory order.
			type totals struct {
				count, sensitive int
				bytes            float64
			}
			var ref [OnPrivate + 1]totals // indexed by Location
			var all, sensitive int
			add := func(kind AssetKind, bytes float64) {
				all++
				if kind.Sensitive() {
					sensitive++
				}
				tot := &ref[pl.at(kind)]
				tot.count++
				tot.bytes += bytes
				if kind.Sensitive() {
					tot.sensitive++
				}
			}
			for c := 0; c < sz.courses; c++ {
				add(CourseContent, 2e9)
				add(ExamQuestions, 20e6)
			}
			for s := 0; s < sz.students; s++ {
				add(Grades, 1e6)
				add(Submissions, 50e6)
			}

			if st.Len() != all {
				t.Errorf("%v %s: Len = %d, want %d", sz, pl.name, st.Len(), all)
			}
			for _, loc := range []Location{OnPublic, OnPrivate} {
				want := ref[loc]
				share := 0.0
				if sensitive > 0 {
					share = float64(want.sensitive) / float64(sensitive)
				}
				if got := st.Count(loc); got != want.count {
					t.Errorf("%v %s: Count(%v) = %d, want %d", sz, pl.name, loc, got, want.count)
				}
				if got := st.SensitiveCount(loc); got != want.sensitive {
					t.Errorf("%v %s: SensitiveCount(%v) = %d, want %d", sz, pl.name, loc, got, want.sensitive)
				}
				if got := st.BytesAt(loc); got != want.bytes {
					t.Errorf("%v %s: BytesAt(%v) = %v, want %v", sz, pl.name, loc, got, want.bytes)
				}
				if got := st.SensitiveShare(loc); got != share {
					t.Errorf("%v %s: SensitiveShare(%v) = %v, want %v", sz, pl.name, loc, got, share)
				}
			}
		}
	}
}
