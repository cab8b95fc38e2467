"""Publish-subscribe substrate.

Reef automates subscriptions *for* an existing publish-subscribe system; it
only requires "a well-defined event algebra syntax and a specification for
valid name-value pairs".  This package implements representative substrates
for Reef to target:

* typed events made of name-value pairs (:mod:`repro.pubsub.events`);
* predicate-based subscriptions with covering relations
  (:mod:`repro.pubsub.subscriptions`);
* a Cayuga-style composite event algebra — sequences, windows, aggregation,
  parametrization (:mod:`repro.pubsub.algebra`);
* a counting-based matching engine (:mod:`repro.pubsub.matching`);
* a Siena-style content-based broker node with per-neighbour routing
  tables (:mod:`repro.pubsub.broker`; the overlay that propagates
  subscriptions between brokers, pruned by covering, is
  :mod:`repro.cluster.routing`);
* SCRIBE-style topic multicast over a Pastry-like DHT
  (:mod:`repro.pubsub.dht`, :mod:`repro.pubsub.topics`);
* a WAIF-style push proxy wrapping pull-based feeds
  (:mod:`repro.pubsub.proxy`);
* a local facade tying it together (:mod:`repro.pubsub.api`).
"""

from repro.pubsub.api import DeliveredEvent, PubSubSystem
from repro.pubsub.events import AttributeValue, Event, EventSchema
from repro.pubsub.interface import AttributeSpec, InterfaceSpec
from repro.pubsub.matching import MatchingEngine, NaiveMatchingEngine
from repro.pubsub.subscriptions import (
    Operator,
    Predicate,
    Subscription,
    TopicSubscription,
)

__all__ = [
    "Event",
    "EventSchema",
    "AttributeValue",
    "Predicate",
    "Operator",
    "Subscription",
    "TopicSubscription",
    "InterfaceSpec",
    "AttributeSpec",
    "MatchingEngine",
    "NaiveMatchingEngine",
    "PubSubSystem",
    "DeliveredEvent",
]
