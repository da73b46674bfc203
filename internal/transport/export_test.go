package transport

// HandlePacket feeds an encoded packet to the receive path, as the
// datalink does once the packet has been drained into CAB memory.
func (t *Transport) HandlePacket(wire []byte) { t.handlePacket(wire, nil) }
