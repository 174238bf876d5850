package instr

import (
	"bytes"
	"testing"
)

func TestFirmwareRoundTrip(t *testing.T) {
	img, err := BuildFirmware(BuiltinSpecs())
	if err != nil {
		t.Fatalf("BuildFirmware: %v", err)
	}
	if len(img) <= FirmwareTableOffset {
		t.Fatalf("image length %d", len(img))
	}
	// The table sits exactly at the paper's address.
	if !bytes.Equal(img[FirmwareTableOffset:FirmwareTableOffset+4], firmwareMagic) {
		t.Fatal("table magic not at 0x102F80")
	}
	specs, err := ExtractFirmware(img)
	if err != nil {
		t.Fatalf("ExtractFirmware: %v", err)
	}
	want := BuiltinSpecs()
	if len(specs) != len(want) {
		t.Fatalf("extracted %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i].Op != want[i].Op || specs[i].Category != want[i].Category || specs[i].Kind != want[i].Kind {
			t.Errorf("entry %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
	// The extracted table builds a working registry equivalent to the
	// builtin one.
	reg, err := RegistryFromFirmware(img)
	if err != nil {
		t.Fatalf("RegistryFromFirmware: %v", err)
	}
	if len(reg.specs) != len(BuiltinRegistry().specs) {
		t.Errorf("registry len %d, want %d", len(reg.specs), len(BuiltinRegistry().specs))
	}
	if _, ok := reg.Lookup("window.open"); !ok {
		t.Error("window.open missing from extracted registry")
	}
}

func TestFirmwareBuildValidation(t *testing.T) {
	if _, err := BuildFirmware([]Spec{{Op: ""}}); err == nil {
		t.Error("want empty-opcode error")
	}
}

func TestExtractFirmwareErrors(t *testing.T) {
	t.Run("too small", func(t *testing.T) {
		if _, err := ExtractFirmware(make([]byte, 128)); err == nil {
			t.Error("want size error")
		}
	})
	t.Run("no magic", func(t *testing.T) {
		img := make([]byte, FirmwareTableOffset+64)
		if _, err := ExtractFirmware(img); err == nil {
			t.Error("want magic error")
		}
	})
	img, err := BuildFirmware(BuiltinSpecs()[:3])
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncated entry", func(t *testing.T) {
		if _, err := ExtractFirmware(img[:FirmwareTableOffset+6]); err == nil {
			t.Error("want truncation error")
		}
	})
	t.Run("truncated opcode", func(t *testing.T) {
		// Cut inside the first opcode.
		if _, err := ExtractFirmware(img[:FirmwareTableOffset+4+entryHeaderSize+2]); err == nil {
			t.Error("want opcode truncation error")
		}
	})
	t.Run("corrupt category", func(t *testing.T) {
		evil := append([]byte(nil), img...)
		evil[FirmwareTableOffset+4+4] = 0xFF // category byte of entry 0
		if _, err := ExtractFirmware(evil); err == nil {
			t.Error("want category error")
		}
	})
	t.Run("corrupt kind", func(t *testing.T) {
		evil := append([]byte(nil), img...)
		evil[FirmwareTableOffset+4+5] = 0xFF
		if _, err := ExtractFirmware(evil); err == nil {
			t.Error("want kind error")
		}
	})
	t.Run("missing terminator", func(t *testing.T) {
		// Chop the terminator entry off entirely.
		if _, err := ExtractFirmware(img[:len(img)-entryHeaderSize]); err == nil {
			t.Error("want truncated-table error")
		}
	})
}
