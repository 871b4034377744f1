"""Catalog of synthetic router syslog templates.

Templates are written in the style of carrier provider-edge router
logs (routing protocol daemons, chassis management, SNMP, the
NFV/hypervisor layer).  Each :class:`LogTemplateSpec` renders concrete
message text by filling placeholders (interfaces, peers, numbers) from
a seeded RNG, so the signature-tree miner sees realistic variability:
stable keywords with variable fields.

Three groups:

* :data:`ROUTINE_TEMPLATES` — normal-operations chatter;
* :data:`PHYSICAL_TEMPLATES` — physical-layer messages emitted by
  traditional pPE routers; vPEs emit almost none of these (the paper's
  "77% less volume ... much fewer log messages on physical layer");
* :data:`FAULT_SYMPTOM_TEMPLATES` — per-root-cause symptom messages
  that fault bursts inject (including the two operational findings the
  paper quotes: the chassis-control peer error and the BGP UNUSABLE
  ASPATH storm).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.logs.message import Facility, Severity, SyslogMessage

_PEER_ASNS = (7018, 3356, 1299, 2914, 6453, 3257, 6939)
_DAEMON_NAMES = (
    "rpd", "chassisd", "snmpd", "ntpd", "sshd", "mib2d", "cosd",
    "dcd", "kernel", "vmmd", "hypervisord",
)

_FIELD_RE = re.compile(r"\{(\w+)\}")
_FIELDS_CACHE: Dict[str, Tuple[str, ...]] = {}


def _pattern_fields(pattern: str) -> Tuple[str, ...]:
    """Placeholder names used by a pattern, in first-appearance order.

    The order fixes the RNG draws of :meth:`LogTemplateSpec.render`, so
    it must not depend on the hash seed (cached; rendering hot path).
    """
    fields = _FIELDS_CACHE.get(pattern)
    if fields is None:
        fields = tuple(dict.fromkeys(_FIELD_RE.findall(pattern)))
        _FIELDS_CACHE[pattern] = fields
    return fields


@dataclass(frozen=True)
class LogTemplateSpec:
    """A renderable syslog template.

    Attributes:
        name: unique catalog key, e.g. ``"bgp_keepalive"``.
        process: emitting daemon.
        severity: syslog severity of rendered messages.
        facility: syslog facility.
        pattern: text with ``{placeholders}`` filled at render time.
        weight: default relative frequency in routine traffic (profiles
            rescale these per role).
    """

    name: str
    process: str
    severity: Severity
    pattern: str
    facility: Facility = Facility.DAEMON
    weight: float = 1.0

    def render(
        self, timestamp: float, host: str, rng: np.random.Generator
    ) -> SyslogMessage:
        """Render a concrete message at ``timestamp`` on ``host``."""
        fields = _pattern_fields(self.pattern)
        values = {
            name: _PLACEHOLDER_MAKERS[name](rng) for name in fields
        }
        return SyslogMessage(
            timestamp=timestamp,
            host=host,
            process=self.process,
            text=self.pattern.format(**values),
            severity=self.severity,
            facility=self.facility,
        )


_USERS = ("netops", "autoconf", "oper", "admin")

#: One value-maker per supported placeholder.  Only the placeholders a
#: pattern actually uses are drawn, keeping rendering cheap.
_PLACEHOLDER_MAKERS = {
    "iface": lambda rng: (
        f"ge-{rng.integers(0, 4)}/{rng.integers(0, 4)}/"
        f"{rng.integers(0, 48)}"
    ),
    "unit": lambda rng: int(rng.integers(0, 512)),
    "ip": lambda rng: (
        f"10.{rng.integers(0, 256)}.{rng.integers(0, 256)}."
        f"{rng.integers(1, 255)}"
    ),
    "peer_ip": lambda rng: (
        f"172.16.{rng.integers(0, 256)}.{rng.integers(1, 255)}"
    ),
    "asn": lambda rng: _PEER_ASNS[rng.integers(len(_PEER_ASNS))],
    "num": lambda rng: int(rng.integers(1, 10000)),
    "small": lambda rng: int(rng.integers(1, 64)),
    "pct": lambda rng: int(rng.integers(1, 100)),
    "ms": lambda rng: int(rng.integers(1, 2000)),
    "temp": lambda rng: int(rng.integers(30, 95)),
    "slot": lambda rng: int(rng.integers(0, 8)),
    "vm": lambda rng: f"vm{rng.integers(0, 16)}",
    "user": lambda rng: _USERS[rng.integers(len(_USERS))],
    "daemon": lambda rng: _DAEMON_NAMES[rng.integers(len(_DAEMON_NAMES))],
}


ROUTINE_TEMPLATES: Tuple[LogTemplateSpec, ...] = (
    # -- routing-protocol chatter (the bulk of PE logs) -----------------
    LogTemplateSpec(
        "bgp_keepalive", "rpd", Severity.INFO,
        "BGP_KEEPALIVE: keepalive received from peer {peer_ip} (AS {asn})",
        weight=10.0,
    ),
    LogTemplateSpec(
        "bgp_update", "rpd", Severity.INFO,
        "BGP_UPDATE: {num} prefixes updated from peer {peer_ip}",
        weight=8.0,
    ),
    LogTemplateSpec(
        "bgp_session_established", "rpd", Severity.NOTICE,
        "BGP_SESSION: session with {peer_ip} (AS {asn}) established",
        weight=0.6,
    ),
    LogTemplateSpec(
        "bgp_hold_timer", "rpd", Severity.WARNING,
        "BGP_HOLD_TIMER: hold timer expired for peer {peer_ip}",
        weight=0.2,
    ),
    LogTemplateSpec(
        "ospf_hello", "rpd", Severity.INFO,
        "OSPF_HELLO: hello from neighbor {ip} on {iface}",
        weight=6.0,
    ),
    LogTemplateSpec(
        "ospf_spf", "rpd", Severity.INFO,
        "OSPF_SPF: SPF computation completed in {ms} ms",
        weight=2.0,
    ),
    LogTemplateSpec(
        "ldp_session", "rpd", Severity.INFO,
        "LDP_SESSION: session {peer_ip} state operational",
        weight=2.0,
    ),
    LogTemplateSpec(
        "rsvp_refresh", "rpd", Severity.INFO,
        "RSVP_REFRESH: path refresh for LSP {num} via {iface}",
        weight=2.5,
    ),
    # -- interface and data-plane events ---------------------------------
    LogTemplateSpec(
        "ifup", "dcd", Severity.NOTICE,
        "SNMP_TRAP_LINK_UP: ifIndex {num}, ifAdminStatus up, "
        "ifOperStatus up, ifName {iface}",
        weight=0.8,
    ),
    LogTemplateSpec(
        "ifdown_routine", "dcd", Severity.WARNING,
        "SNMP_TRAP_LINK_DOWN: ifIndex {num}, ifAdminStatus up, "
        "ifOperStatus down, ifName {iface}",
        weight=0.3,
    ),
    LogTemplateSpec(
        "cos_queue", "cosd", Severity.INFO,
        "COS_QUEUE: scheduler map updated on {iface} unit {unit}",
        weight=1.2,
    ),
    LogTemplateSpec(
        "firewall_match", "kernel", Severity.INFO,
        "FW_MATCH: filter accept-bgp matched {num} packets from {ip}",
        facility=Facility.KERNEL, weight=3.0,
    ),
    # -- management plane -------------------------------------------------
    LogTemplateSpec(
        "snmp_get", "snmpd", Severity.INFO,
        "SNMP_GET: get-bulk from manager {ip} oid ifTable",
        weight=5.0,
    ),
    LogTemplateSpec(
        "snmp_auth_fail", "snmpd", Severity.WARNING,
        "SNMP_AUTH_FAIL: authentication failure from {ip}",
        weight=0.15,
    ),
    LogTemplateSpec(
        "ntp_sync", "ntpd", Severity.INFO,
        "NTP_SYNC: clock synchronized to {ip} offset {ms} ms",
        facility=Facility.NTP, weight=1.0,
    ),
    LogTemplateSpec(
        "ssh_login", "sshd", Severity.INFO,
        "SSHD_LOGIN: accepted publickey for {user} from {ip}",
        facility=Facility.AUTH, weight=0.8,
    ),
    LogTemplateSpec(
        "ssh_logout", "sshd", Severity.INFO,
        "SSHD_LOGOUT: session closed for {user}",
        facility=Facility.AUTH, weight=0.8,
    ),
    LogTemplateSpec(
        "config_commit", "mgd", Severity.NOTICE,
        "UI_COMMIT: user {user} committed configuration",
        weight=0.4,
    ),
    LogTemplateSpec(
        "mib2d_stats", "mib2d", Severity.INFO,
        "MIB2D_STATS: interface statistics poll completed, {num} ifs",
        weight=2.0,
    ),
    # -- chassis / platform -----------------------------------------------
    LogTemplateSpec(
        "chassis_poll", "chassisd", Severity.INFO,
        "CHASSISD_POLL: environment poll ok, {small} sensors nominal",
        weight=2.0,
    ),
    LogTemplateSpec(
        "fan_speed", "chassisd", Severity.INFO,
        "CHASSISD_FAN: fan tray {slot} speed adjusted to {pct} percent",
        weight=0.8,
    ),
    LogTemplateSpec(
        "temp_reading", "chassisd", Severity.INFO,
        "CHASSISD_TEMP: slot {slot} temperature {temp} C",
        weight=1.0,
    ),
    # -- NFV / virtualization layer (vPE-specific chatter) ----------------
    LogTemplateSpec(
        "vm_heartbeat", "vmmd", Severity.INFO,
        "VMMD_HEARTBEAT: {vm} heartbeat ok, cpu {pct} percent",
        weight=4.0,
    ),
    LogTemplateSpec(
        "vm_resource", "hypervisord", Severity.INFO,
        "HYPERVISOR_RESOURCE: {vm} memory ballooning to {pct} percent",
        weight=1.5,
    ),
    LogTemplateSpec(
        "vm_migrate_ok", "hypervisord", Severity.NOTICE,
        "HYPERVISOR_MIGRATE: {vm} live migration completed in {ms} ms",
        weight=0.2,
    ),
    LogTemplateSpec(
        "vnf_kpi", "vmmd", Severity.INFO,
        "VMMD_KPI: forwarding rate {num} kpps on {vm}",
        weight=3.0,
    ),
)


#: Physical-layer messages: common on pPEs, nearly absent on vPEs
#: because virtualization hides the lower layers (section 2).
PHYSICAL_TEMPLATES: Tuple[LogTemplateSpec, ...] = (
    LogTemplateSpec(
        "optics_power", "chassisd", Severity.INFO,
        "SFP_OPTICS: {iface} rx power -{small}.{small} dBm",
        weight=5.0,
    ),
    LogTemplateSpec(
        "fpc_status", "chassisd", Severity.INFO,
        "FPC_STATUS: FPC {slot} CPU {pct} percent heap {pct} percent",
        weight=5.0,
    ),
    LogTemplateSpec(
        "pic_poll", "chassisd", Severity.INFO,
        "PIC_POLL: PIC {slot}/{small} status online",
        weight=4.0,
    ),
    LogTemplateSpec(
        "sonet_alarm", "chassisd", Severity.WARNING,
        "SONET_ALARM: {iface} reported LOS cleared",
        weight=1.0,
    ),
    LogTemplateSpec(
        "power_supply", "chassisd", Severity.INFO,
        "PEM_STATUS: power entry module {slot} voltage nominal",
        weight=3.0,
    ),
    LogTemplateSpec(
        "backplane_crc", "kernel", Severity.INFO,
        "BACKPLANE_CRC: slot {slot} crc counter {num}",
        facility=Facility.KERNEL, weight=2.0,
    ),
)


#: Symptom templates injected by fault bursts, keyed by root-cause
#: value (string keys avoid a circular import with repro.tickets).
FAULT_SYMPTOM_TEMPLATES: Dict[str, Tuple[LogTemplateSpec, ...]] = {
    "circuit": (
        LogTemplateSpec(
            "bgp_unusable_aspath", "rpd", Severity.ERROR,
            "BGP_UNUSABLE_ASPATH: bgp reject path from peer {peer_ip} "
            "(AS {asn})",
        ),
        LogTemplateSpec(
            "bgp_peer_down", "rpd", Severity.ERROR,
            "BGP_NEIGHBOR_DOWN: peer {peer_ip} (AS {asn}) went from "
            "Established to Idle",
        ),
        LogTemplateSpec(
            "circuit_ifdown", "dcd", Severity.ERROR,
            "SNMP_TRAP_LINK_DOWN: ifIndex {num}, circuit to {ip} "
            "operationally down, ifName {iface}",
        ),
        LogTemplateSpec(
            "ldp_session_down", "rpd", Severity.ERROR,
            "LDP_SESSION_DOWN: session {peer_ip} closed, discovery lost",
        ),
    ),
    "cable": (
        LogTemplateSpec(
            "link_flap", "dcd", Severity.WARNING,
            "LINK_FLAP: {iface} flapped {small} times in {small} seconds",
        ),
        LogTemplateSpec(
            "optics_degraded", "chassisd", Severity.WARNING,
            "SFP_OPTICS_DEGRADED: {iface} rx power below threshold "
            "-{small}.{small} dBm",
        ),
        LogTemplateSpec(
            "crc_errors", "kernel", Severity.WARNING,
            "IF_CRC_ERRORS: {iface} input crc errors {num}",
            facility=Facility.KERNEL,
        ),
    ),
    "hardware": (
        LogTemplateSpec(
            "chassis_peer_invalid", "chassisd", Severity.ERROR,
            "CHASSISD_IPC: invalid response from peer chassis-control "
            "connection {small}",
        ),
        LogTemplateSpec(
            "fan_failure", "chassisd", Severity.CRITICAL,
            "CHASSISD_FAN_FAILURE: fan tray {slot} failure detected",
        ),
        LogTemplateSpec(
            "temp_hot", "chassisd", Severity.ALERT,
            "CHASSISD_OVER_TEMP: slot {slot} temperature {temp} C "
            "exceeds threshold",
        ),
        LogTemplateSpec(
            "card_error", "chassisd", Severity.ERROR,
            "FPC_ERROR: FPC {slot} parity error at address 0x{num}",
        ),
    ),
    "software": (
        LogTemplateSpec(
            "daemon_crash", "init", Severity.CRITICAL,
            "INIT_PROCESS_EXIT: {daemon} exited on signal 11, restarting",
        ),
        LogTemplateSpec(
            "memory_leak", "kernel", Severity.ERROR,
            "KERNEL_MEMORY: {daemon} rss {num} MB exceeds watermark",
            facility=Facility.KERNEL,
        ),
        LogTemplateSpec(
            "vm_unresponsive", "hypervisord", Severity.ERROR,
            "HYPERVISOR_VM_STALL: {vm} vcpu stalled for {small} seconds",
        ),
        LogTemplateSpec(
            "rpd_scheduler_slip", "rpd", Severity.WARNING,
            "RPD_SCHED_SLIP: scheduler slip of {ms} ms detected",
        ),
    ),
    "maintenance": (
        LogTemplateSpec(
            "maint_commit", "mgd", Severity.NOTICE,
            "UI_COMMIT: user {user} committed configuration "
            "(maintenance window)",
        ),
        LogTemplateSpec(
            "graceful_restart", "rpd", Severity.NOTICE,
            "BGP_GRACEFUL_RESTART: graceful restart initiated for "
            "peer {peer_ip}",
        ),
        LogTemplateSpec(
            "package_install", "mgd", Severity.NOTICE,
            "PKG_INSTALL: software package {num} staged for install",
        ),
    ),
}


#: Templates introduced only after a software update (section 3.3):
#: new daemons and renamed events shift the syslog distribution.
UPDATE_TEMPLATES: Tuple[LogTemplateSpec, ...] = (
    LogTemplateSpec(
        "telemetry_export", "telemetryd", Severity.INFO,
        "TELEMETRY_EXPORT: streamed {num} sensors to collector {ip}",
        weight=6.0,
    ),
    LogTemplateSpec(
        "bgp_keepalive_v2", "rpd", Severity.INFO,
        "BGP_IO_KEEPALIVE: keepalive processed for neighbor {peer_ip} "
        "hold {small}",
        weight=8.0,
    ),
    LogTemplateSpec(
        "healthd_probe", "healthd", Severity.INFO,
        "HEALTHD_PROBE: liveness probe ok latency {ms} ms",
        weight=4.0,
    ),
    LogTemplateSpec(
        "vm_heartbeat_v2", "vmmd", Severity.INFO,
        "VMMD_HB2: heartbeat v2 {vm} ok cpu {pct} mem {pct}",
        weight=4.0,
    ),
    LogTemplateSpec(
        "ospf_hello_v2", "rpd", Severity.INFO,
        "OSPF_ADJ: adjacency refresh neighbor {ip} interface {iface}",
        weight=5.0,
    ),
    LogTemplateSpec(
        "snmp_poll_v2", "snmpd", Severity.INFO,
        "SNMP_POLL: bulk poll v2 from collector {ip} rows {num}",
        weight=4.0,
    ),
    LogTemplateSpec(
        "bgp_update_v2", "rpd", Severity.INFO,
        "BGP_RIB_UPDATE: rib install {num} routes neighbor {peer_ip}",
        weight=6.0,
    ),
)


def catalog_by_name() -> Dict[str, LogTemplateSpec]:
    """Index every catalog template by its unique name."""
    specs: List[LogTemplateSpec] = [
        *ROUTINE_TEMPLATES,
        *PHYSICAL_TEMPLATES,
        *UPDATE_TEMPLATES,
    ]
    for group in FAULT_SYMPTOM_TEMPLATES.values():
        specs.extend(group)
    index: Dict[str, LogTemplateSpec] = {}
    for spec in specs:
        if spec.name in index:
            raise ValueError(f"duplicate template name {spec.name!r}")
        index[spec.name] = spec
    return index
