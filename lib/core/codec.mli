(** Strict JSON codecs, each read off one description of its object.

    A description lists an object's members in output order, each with
    a key, a {!kind}, a default (none: the key is required) and a
    getter, plus the function that builds the value from the members'
    values. {!write}, {!decode} and the object's set of legal keys all
    come from it. Decoding is strict: an object refuses a key outside
    its set (keys that start with ['_'] are free, for comments), a
    non-integral or out-of-range integer, and both spellings of a
    duration; every error names the key's path, as in
    [flows[0].pair]. An object's unknown key is reported before any
    other error inside it, since a misspelt key leaves its member
    missing or at its default.

    {!spec} is the table of every object of a {!Spec.t}, which
    {!Spec.to_json} and {!Spec.of_json} read; {!Chaos} describes its
    cases and failure artifacts around it. *)

type _ kind =
  | Int : int kind  (** an integral number within ±2^53 *)
  | Float : float kind  (** a finite number *)
  | Str : string kind
  | Bool : bool kind
  | Decimal : int kind  (** an int written as a decimal string *)
  | Time : Sim.Time.t kind
      (** a member of this kind (or of [Opt Time]) is keyed
          [<key>_ns], integer nanoseconds and the spelling written,
          or [<key>_s], float seconds; never both *)
  | Opt : 'a kind -> 'a option kind  (** [null] is [None] *)
  | Items : 'a kind -> 'a list kind
  | Record : ('a, 'a) obj -> 'a kind
  | Tagged : string option * 'a case list -> 'a kind
      (** the object's ["kind"] key (default: the string) picks the
          case *)
  | Conv : 'b kind * ('a -> 'b) * ('b -> ('a, string) result) -> 'a kind
      (** a value written as its image in another kind; the decoder's
          [Error] is reported at the key *)

and ('r, 'a) member
(** One member of an object read from ['r]. *)

(** Members read from ['r]; ['k] is the type of the function that
    builds ['v] from their values. *)
and ('r, 'k, 'v) members =
  | [] : ('r, 'v, 'v) members
  | ( :: ) :
      ('r, 'a) member * ('r, 'k, 'v) members
      -> ('r, 'a -> 'k, 'v) members

and ('r, 'v) obj
(** An object's members and the function that builds it. *)

and 'v case
(** One case of a {!Tagged} object. *)

val mem : ?default:'a -> string -> 'a kind -> ('r -> 'a) -> ('r, 'a) member
(** [mem key kind get]: a member read from ['r] by [get]. Without
    [default] the key is required. A duration member (of kind [Time]
    or [Opt Time]) is keyed [<key>_ns] or [<key>_s]. *)

val record : 'k -> ('a, 'k, 'a) members -> 'a kind
(** [record make members]: an object whose members' values, in order,
    are [make]'s arguments. *)

val case :
  string -> ('v -> 'r option) -> 'k -> ('r, 'k, 'v) members -> 'v case
(** [case tag proj make members]: the {!Tagged} case named [tag];
    [proj] picks the values it writes. *)

val write : 'a kind -> 'a -> Report.Json.t
(** The JSON a value of the kind reads back from. *)

val decode : 'a kind -> Report.Json.t -> ('a, string) result
(** Inverse of {!write}; missing keys take their defaults. *)

val names : 'a kind -> string list list
(** Every key and case tag reachable from the kind, each once, in
    table order: a duration's [[<key>_ns; <key>_s]] is one entry,
    any other key or tag a one-spelling entry. Its caller is the
    [core.spec] test "template names every key". *)

val spec : Spec_types.t kind
(** Every object of a spec, as {!Spec.to_json} writes it. *)
