package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"bad model":  {"-model", "mainframe"},
		"bad access": {"-access", "carrier-pigeon"},
		"bad scaler": {"-scaler", "psychic"},
		"bad flag":   {"-nonsense"},
	}
	for name, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunTinyScenarioSucceeds(t *testing.T) {
	err := run([]string{
		"-model", "private", "-students", "50", "-hours", "0.25",
		"-access", "campus-lan", "-scaler", "fixed", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunExamAndCDNFlags(t *testing.T) {
	err := run([]string{
		"-model", "public", "-students", "50", "-hours", "0.5",
		"-exam", "-cdn", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorMentionsValue(t *testing.T) {
	err := run([]string{"-model", "mainframe"})
	if err == nil || !strings.Contains(err.Error(), "mainframe") {
		t.Fatalf("err = %v, want mention of bad value", err)
	}
}

// TestRunAcceptsEveryName: each name flag accepts every name its type
// prints, and an unknown name fails with the accepted list.
func TestRunAcceptsEveryName(t *testing.T) {
	flags := map[string][]string{
		"-model":  {"public", "private", "hybrid", "desktop"},
		"-access": {"campus-lan", "urban-broadband", "rural-dsl"},
		"-scaler": {"fixed", "reactive", "scheduled", "predictive", "growth-fit", "oracle"},
	}
	for flag, accepted := range flags {
		for _, name := range accepted {
			err := run([]string{flag, name, "-students", "50", "-hours", "0.25", "-seed", "3"})
			if err != nil {
				t.Errorf("%s %s: %v", flag, name, err)
			}
		}
		err := run([]string{flag, "unknown"})
		if err == nil || !strings.Contains(err.Error(), strings.Join(accepted, "|")) {
			t.Errorf("%s unknown: err = %v, want the accepted names listed", flag, err)
		}
	}
}
