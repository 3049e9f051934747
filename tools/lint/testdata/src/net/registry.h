// Fixture: the wire registry lists paxos::Pong only.
#pragma once

using WireMessages = MessageList<paxos::Pong>;
