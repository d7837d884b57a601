package obs

import "context"

// W3C trace-context propagation: the `traceparent` header ties the
// gateway's and a replica's spans into one trace. Only version 00 of the
// format is understood:
//
//	00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// Parsing is strict but failure is soft by contract: a malformed or
// absent header never rejects a request — the receiver just starts a
// fresh root trace.

// ParseTraceparent extracts the trace ID and parent span ID from a
// traceparent header value. ok is false for anything malformed: wrong
// shape, wrong lengths, non-hex digits, the forbidden all-zero IDs, or
// the reserved version ff.
func ParseTraceparent(s string) (traceID, spanID string, ok bool) {
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return "", "", false
	}
	version, tid, pid, flags := s[0:2], s[3:35], s[36:52], s[53:55]
	if !isHex(version) || !isHex(tid) || !isHex(pid) || !isHex(flags) {
		return "", "", false
	}
	if version == "ff" || allZero(tid) || allZero(pid) {
		return "", "", false
	}
	return tid, pid, true
}

// FormatTraceparent renders a version-00 traceparent header value with
// the sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// Traceparent renders ctx's current trace position — the value an
// outbound request should carry so the receiver's spans become children
// of ctx's innermost span. It returns "" when ctx carries no trace or
// the trace has no current position to hang a child on.
func Traceparent(ctx context.Context) string {
	tr := FromContext(ctx)
	if tr == nil {
		return ""
	}
	pos := tr.rootParent
	if sp := CurrentSpan(ctx); sp != nil {
		pos = sp.id
	}
	if pos == "" {
		return ""
	}
	return FormatTraceparent(tr.traceID, pos)
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
