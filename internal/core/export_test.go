package core

// Test-only access for the external test package (core_test), which can
// import the applications and so sees every payload they register.

// PayloadTags lists every tag DecodeMessage accepts: the primitive
// built-ins, bundles, multicast member lists, and every registered type.
func PayloadTags() []byte {
	tags := []byte{tagNil, tagInt, tagInt64, tagFloat64, tagF64Slice, tagString, tagBytes, tagBool, tagBundle, tagMcast}
	payloadMu.RLock()
	defer payloadMu.RUnlock()
	for tag := 0; tag < 256; tag++ {
		if payloadByTag[byte(tag)] != nil {
			tags = append(tags, byte(tag))
		}
	}
	return tags
}

// DecodePayloadPrefix decodes one payload of the given tag from the front
// of b and returns the unread remainder.
var DecodePayloadPrefix = decodePayload

// MsgHeaderLen is the fixed message header, tag byte included.
const MsgHeaderLen = msgHeaderLen

// TCPPair and NewTCPPair are the two-node loopback harness
// (tcp_integration_test.go), shared with the chaos tests.
type TCPPair = tcpPair

var NewTCPPair = newTCPPair
