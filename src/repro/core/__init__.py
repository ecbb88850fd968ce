"""The Information Bus core: subject-based pub/sub, QoS, discovery, RMI,
and WAN routers."""

from .subjects import (BadSubjectError, SubjectTrie, is_admin_subject,
                       is_valid_pattern, is_valid_subject, split_subject,
                       subject_matches, validate_pattern, validate_subject)
from .message import Envelope, MessageInfo, Packet, PacketKind, QoS
from .wire import (CorruptFrame, EnvelopeView, SessionTable, UnresolvedIds,
                   decode_packet, encode_envelope, encode_packet,
                   envelope_wire_size, packet_wire_size)
from .typeplane import PeerTypeView, TypeTable
from .flow import (Admission, BoundedBuffer, BoundedQueue, FlowConfig,
                   FlowStats, OVERFLOW_POLICIES, POLICY_BLOCK,
                   POLICY_DROP_NEWEST, POLICY_DROP_OLDEST, PublishReceipt)
from .reliable import (ReliableConfig, ReliableReceiver, ReliableSender,
                       SessionStats)
from .metrics import (Counter, Gauge, Histogram, MetricsPublisher,
                      MetricsRegistry, MetricsScope, sum_counters)
from .batching import BatchConfig, Batcher
from .guaranteed import GuaranteedConsumer, GuaranteedPublisher, LedgerEntry
from .daemon import (ADVERT_SUBJECT, DAEMON_PORT, STAT_PORT,
                     STAT_SUBJECT_PREFIX, BusConfig, BusDaemon,
                     BusDownError)
from .sharding import ShardMap, ShardedDaemon
from .client import BusClient, Subscription
from .bus import InformationBus
from .discovery import DiscoveredService, Inquiry, Responder, inquiry_subject
from .rmi import (ExactlyOnceRmiClient, RmiClient, RmiError, RmiServer,
                  ServerGroup)
from .namespace import FAB_SENSOR_SCHEME, NEWS_SCHEME, SubjectScheme
from .router import Router, RouterLeg, WanLink

__all__ = [
    "ADVERT_SUBJECT", "Admission", "BadSubjectError", "BatchConfig",
    "Batcher", "BoundedBuffer", "BoundedQueue",
    "BusClient", "BusConfig", "BusDaemon", "BusDownError", "CorruptFrame",
    "Counter", "DAEMON_PORT", "DiscoveredService", "Envelope",
    "EnvelopeView", "Gauge",
    "Histogram", "MetricsPublisher", "MetricsRegistry", "MetricsScope",
    "STAT_PORT", "STAT_SUBJECT_PREFIX", "sum_counters",
    "FlowConfig", "FlowStats", "OVERFLOW_POLICIES", "POLICY_BLOCK",
    "POLICY_DROP_NEWEST", "POLICY_DROP_OLDEST", "PublishReceipt",
    "GuaranteedConsumer", "GuaranteedPublisher", "InformationBus",
    "Inquiry", "LedgerEntry", "MessageInfo", "Packet",
    "ExactlyOnceRmiClient", "FAB_SENSOR_SCHEME", "NEWS_SCHEME",
    "PacketKind", "QoS", "ReliableConfig", "SubjectScheme",
    "ReliableReceiver", "decode_packet", "encode_envelope",
    "encode_packet", "envelope_wire_size", "packet_wire_size",
    "ReliableSender", "Responder", "RmiClient", "RmiError", "RmiServer",
    "PeerTypeView", "Router", "RouterLeg", "ServerGroup", "SessionStats",
    "SessionTable", "ShardMap", "ShardedDaemon",
    "SubjectTrie", "Subscription", "TypeTable", "UnresolvedIds", "WanLink",
    "inquiry_subject", "is_admin_subject",
    "is_valid_pattern", "is_valid_subject", "split_subject",
    "subject_matches", "validate_pattern", "validate_subject",
]
