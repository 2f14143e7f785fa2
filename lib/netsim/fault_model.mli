(** Composable link-fault injection: burst loss, reordering,
    duplication and scheduled impairments.

    A {!profile} is pure data describing the adversarial behaviour of a
    path; {!create} binds it to an RNG stream and {!install} attaches it
    to a {!Link} through the link's fault hook. Given the same profile,
    seed and packet arrival order, every decision replays
    byte-identically — the determinism contract the chaos harness's
    failure artifacts rely on (see DESIGN.md §4.7). *)

type ge = {
  p_gb : float;  (** per-packet P(good → bad) transition *)
  p_bg : float;  (** per-packet P(bad → good) transition *)
  loss_good : float;  (** loss probability while in the good state *)
  loss_bad : float;  (** loss probability while in the bad state *)
}
(** Gilbert–Elliott two-state burst-loss channel. The loss decision is
    taken in the current state, then the state transitions; the mean
    bad-burst length is [1 / p_bg] packets. *)

type jitter = {
  prob : float;  (** per-packet trigger probability *)
  max_extra : Sim.Time.t;  (** extra delay uniform in [0, max_extra) *)
}

type event =
  | Outage of { start : Sim.Time.t; stop : Sim.Time.t }
      (** every packet entering the link in [\[start, stop)] is dropped —
          a link flap or blackout window *)
  | Delay_step of { at : Sim.Time.t; extra : Sim.Time.t }
      (** from [at] onward, all deliveries take [extra] additional
          propagation delay (until the next step; steps replace, not
          stack) *)

type profile = {
  ge : ge option;
  reorder : jitter option;
      (** triggered packets get extra delay, overtaking later ones *)
  duplicate : jitter option;
      (** triggered packets deliver twice; the copy gets its own
          jitter *)
  schedule : event list;  (** timed impairments, any order *)
}

val passthrough : profile
(** No impairments at all. *)

type t

val validate : profile -> unit
(** Raise [Invalid_argument], naming the field, unless every
    probability is within [0,1], every outage stops at or after its
    start and every delay step is non-negative. *)

val create : rng:Sim.Rng.t -> profile -> t
(** Validates the profile ({!validate}) and binds it to [rng]. The
    model draws exactly one value per enabled mechanism per packet, in
    a fixed order, so the stream position is a function of the packet
    sequence alone. *)

val install : t -> Link.t -> unit
(** Attach to a link via {!Link.set_fault_hook}. One model instance
    must serve exactly one link — sharing an instance interleaves the
    RNG stream and the Gilbert–Elliott state between the links. *)

val decide : t -> now:Sim.Time.t -> Packet.t -> Sim.Time.t list
(** The underlying per-packet decision ([[]] = drop; otherwise one
    extra delay per delivered copy), exposed for unit tests. *)

val profile : t -> profile

(** {2 Counters} *)

val random_drops : t -> int
(** Packets dropped by the Gilbert–Elliott channel. *)

val outage_drops : t -> int
(** Packets dropped inside a scheduled outage window. *)

val duplicates : t -> int
(** Extra copies created. *)

val reordered : t -> int
(** Packets given reordering jitter. *)

val in_bad_state : t -> bool
(** Current Gilbert–Elliott state (for tests). *)

val last_outage_end : t -> Sim.Time.t option
(** The latest outage [stop] in the schedule, if any — the moment after
    which the progress invariant applies. *)
