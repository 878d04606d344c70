package persist

import "os"

// Whole frames for the decoder tests and fuzz seeds to assemble files from.

func EncodeHeaderFrame(h Header) []byte { return appendFrame(nil, appendHeaderPayload(nil, h)) }

func EncodeRecordFrame(r Record) []byte { return appendFrame(nil, appendRecordPayload(nil, r)) }

func EncodeFooterFrame(count uint64) []byte { return appendFrame(nil, appendFooterPayload(nil, count)) }

// CheckpointFile is the temp image file cw writes into.
func CheckpointFile(cw *CheckpointWriter) *os.File { return cw.f }
