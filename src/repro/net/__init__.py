"""Network emulation substrate.

Models the parts of the network P2PLab controls:

* :mod:`repro.net.addr` — IPv4 addresses and prefixes;
* :mod:`repro.net.packet` — packets/messages flowing through the emulation;
* :mod:`repro.net.nic` — interfaces with alias addresses (paper Fig. 4);
* :mod:`repro.net.pipe` — Dummynet pipes: bandwidth, delay, loss, queue;
* :mod:`repro.net.ipfw` — IPFW-style firewall with linear rule scan
  (paper Fig. 6);
* :mod:`repro.net.switch` — the physical LAN connecting physical nodes;
* :mod:`repro.net.stack` — per-physical-node network stack;
* :mod:`repro.net.tcp` / :mod:`repro.net.udp` — transports;
* :mod:`repro.net.socket_api` — the emulated POSIX-ish socket API that
  applications (and the intercepting libc) use;
* :mod:`repro.net.ping` — ICMP-echo RTT probes.
"""

from repro.net.addr import IPv4Address, IPv4Network, ip, network
from repro.net.ipfw import Firewall, Rule
from repro.net.nic import Interface
from repro.net.packet import Packet
from repro.net.pipe import DummynetPipe
from repro.net.sniffer import Sniffer
from repro.net.stack import NetworkStack
from repro.net.switch import Switch

__all__ = [
    "IPv4Address",
    "IPv4Network",
    "ip",
    "network",
    "Interface",
    "Packet",
    "DummynetPipe",
    "Firewall",
    "Rule",
    "Sniffer",
    "Switch",
    "NetworkStack",
]
