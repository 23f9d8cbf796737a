package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdout pins the example's output: the run is deterministic, so
// stdout must match testdata/quickstart.out byte for byte. After an intended
// change, regenerate it with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/quickstart.out
func TestStdout(t *testing.T) {
	want, err := os.ReadFile("testdata/quickstart.out")
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(t.TempDir() + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from testdata/quickstart.out:\n%s", got)
	}
}
