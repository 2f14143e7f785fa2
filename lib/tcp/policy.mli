(** First-class congestion-control policies: the one registry that turns
    a name into a connection's controllers.

    A policy pairs a slow-start rule ({!Slow_start.t}: per-ACK growth
    and voluntary exit) with an avoidance rule ({!Cong_avoid.t}: per-ACK
    growth plus loss/RTO reactions) and that avoidance rule's pacing
    hints. The sender is unchanged — it still dispatches through the
    two records — but every CLI flag, spec field and sweep resolves its
    name here.

    Names:
    - a slow-start rule alone (["restricted"]) pairs it with Reno;
    - ["SS+CA"] names both halves (["limited+cubic"]);
    - ["hystart-cubic"], ["relentless"], ["fast"] and ["small-rtt"] are
      aliases for [hystart+cubic], [standard+relentless],
      [standard+fast] and [standard+small-rtt]. *)

type t = {
  name : string;  (** the name it was resolved from *)
  slow_start : Slow_start.t;
  cong_avoid : Cong_avoid.t;
  pace_gains : (float * float) option;
      (** pacing hint [(slow_start_gain, cong_avoid_gain)] for
          {!Config.t}[.pace_ss_gain]/[.pace_ca_gain] when the connection
          paces; [None] = keep the sch_fq defaults (2.0, 1.2). Set by
          the avoidance rule: FAST's is (2.0, 1.0). *)
}

val by_name :
  ?restricted_config:Slow_start.restricted_config ->
  string ->
  (t, string) result
(** A fresh policy instance (controllers carry per-connection state —
    never share one instance between senders). [restricted_config]
    overrides the PID tuning of the restricted slow-start rules and is
    ignored by the others. The error names every rule and bundle. *)

val split : string -> string * string
(** [split name] cuts a name at its first ['+'] into its slow-start and
    avoidance parts; without a ['+'] the avoidance part is ["reno"].
    Aliases are not expanded and nothing is checked:
    [split "hystart+cubic" = ("hystart", "cubic")],
    [split "restricted" = ("restricted", "reno")]. *)

val names : string list
(** The named bundles, in comparison-matrix row order: ["standard"],
    ["restricted"], ["restricted-adaptive"], ["hystart-cubic"],
    ["ssthreshless"], ["relentless"], ["fast"], ["small-rtt"]. *)

val bundles : (string * string) list
(** [(name, "SS+CA")] for each of {!names}, in order: the pair each
    bundle name stands for. *)

val slow_starts : (string * string) list
(** [(name, one-line doc)] for every slow-start rule. *)

val avoidances : (string * string) list
(** [(name, one-line doc)] for every avoidance rule. *)
