package lms

import "fmt"

// AssetKind classifies the digital assets the paper names: "tests, exam
// questions, results" plus the bulk course content around them.
type AssetKind int

// Asset kinds.
const (
	CourseContent AssetKind = iota + 1 // slides, video, readings
	ExamQuestions                      // sensitive before the exam
	Grades                             // sensitive always
	Submissions                        // student work
)

// String returns the kind name.
func (k AssetKind) String() string {
	switch k {
	case CourseContent:
		return "course-content"
	case ExamQuestions:
		return "exam-questions"
	case Grades:
		return "grades"
	case Submissions:
		return "submissions"
	default:
		return fmt.Sprintf("AssetKind(%d)", int(k))
	}
}

// Sensitive reports whether assets of this kind are confidential.
func (k AssetKind) Sensitive() bool { return k == ExamQuestions || k == Grades }

// Location says which side of a deployment holds an asset.
type Location int

// Asset locations.
const (
	OnPublic  Location = iota + 1 // public-cloud storage
	OnPrivate                     // on-premise / private-cloud storage
)

// String returns the location name.
func (l Location) String() string {
	switch l {
	case OnPublic:
		return "public"
	case OnPrivate:
		return "private"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// AssetStore is the institution's asset inventory, held per kind: how
// many assets of each kind, the size of one, and where that kind lives.
// Placement is a rule per kind, so every total is an exact product of
// integers. The deploy package decides placements; the security model
// scores sensitive exposure; the migration planner sums egress bytes.
type AssetStore struct {
	kinds [4]stock // indexed by AssetKind-1
}

// stock is one kind's share of the inventory.
type stock struct {
	kind  AssetKind
	count int
	bytes float64 // per asset
	loc   Location
}

// NewAssetStore builds an inventory representative of an institution with
// the given number of courses and students: per course, bulk content and
// an exam bundle; per student, a grade record and submissions. Everything
// starts in-house.
func NewAssetStore(courses, students int) *AssetStore {
	if courses < 0 || students < 0 {
		panic("lms: NewAssetStore with negative sizes")
	}
	return &AssetStore{kinds: [4]stock{
		{CourseContent, courses, 2e9, OnPrivate},  // ~2 GB of video+slides per course
		{ExamQuestions, courses, 20e6, OnPrivate}, // exam bundle
		{Grades, students, 1e6, OnPrivate},
		{Submissions, students, 50e6, OnPrivate},
	}}
}

// Len returns the number of assets.
func (st *AssetStore) Len() int {
	n := 0
	for _, k := range st.kinds {
		n += k.count
	}
	return n
}

// PlaceAll moves every asset to one location (public-only or private-only
// deployments).
func (st *AssetStore) PlaceAll(loc Location) {
	st.PlaceSensitive(loc, loc)
}

// PlaceSensitive pins all sensitive assets to pin and everything else to
// rest — the hybrid "distribution of units" policy.
func (st *AssetStore) PlaceSensitive(pin, rest Location) {
	for i := range st.kinds {
		if st.kinds[i].kind.Sensitive() {
			st.kinds[i].loc = pin
		} else {
			st.kinds[i].loc = rest
		}
	}
}

// Count returns how many assets are at loc.
func (st *AssetStore) Count(loc Location) int {
	n := 0
	for _, k := range st.kinds {
		if k.loc == loc {
			n += k.count
		}
	}
	return n
}

// SensitiveCount returns how many sensitive assets are at loc.
func (st *AssetStore) SensitiveCount(loc Location) int {
	n := 0
	for _, k := range st.kinds {
		if k.kind.Sensitive() && k.loc == loc {
			n += k.count
		}
	}
	return n
}

// BytesAt sums the stored bytes at loc.
func (st *AssetStore) BytesAt(loc Location) float64 {
	var sum float64
	for _, k := range st.kinds {
		if k.loc == loc {
			sum += float64(k.count) * k.bytes
		}
	}
	return sum
}

// SensitiveShare returns the fraction of sensitive assets located at loc
// (0 when there are no sensitive assets).
func (st *AssetStore) SensitiveShare(loc Location) float64 {
	total := 0
	for _, k := range st.kinds {
		if k.kind.Sensitive() {
			total += k.count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(st.SensitiveCount(loc)) / float64(total)
}
