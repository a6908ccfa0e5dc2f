(** Applying a fault plan to a concrete graph: the compiled lookup
    tables the runners consult per half-edge, per-node outcome
    statuses, and Def. 2.4-style verification of a partial labeling on
    the healthy subgraph. *)

(** Outcome of one node under resilient execution. *)
type status =
  | Ok            (** output produced from a pristine view *)
  | Crashed       (** crash-stop node: no output by fiat *)
  | Starved       (** no/partial output for lack of information, or an
                      output computed from a fault-degraded view *)
  | Errored of Error.t  (** the algorithm itself failed here *)

(** Did the node produce an output row ([Ok]/[Starved])? *)
val status_ok : status -> bool

(** Per-status node counts of one run. *)
type tally = { n_ok : int; n_crashed : int; n_starved : int; n_errored : int }

val tally : status array -> tally

val status_string : status -> string
val pp_status : Format.formatter -> status -> unit

type compiled = {
  plan : Plan.t;
  crashed : bool array;
  blocked : bool array array;
      (** [(v, p)] blocked iff the edge is severed or either endpoint
          crashed — symmetric by construction. [[||]] when the plan
          cuts nothing; consult via [is_blocked] / [node_degraded],
          never by direct indexing *)
  any_blocked : bool;  (** [false] enables the pristine fast path *)
  severed_live : int;  (** severed edges that exist in the graph *)
  ids_patch : (int * int) array;
  rand_patch : (int * int64) array;
  probe_tbl : (int, int list) Hashtbl.t;
}

(** Validate node ranges (F301) and precompute the blocking tables. *)
val compile : Plan.t -> Graph.t -> (compiled, Error.t) result

val is_crashed : compiled -> int -> bool
val is_blocked : compiled -> int -> int -> bool

(** Some incident half-edge is blocked (radius-1 view degraded). *)
val node_degraded : compiled -> int -> bool

(** Identifiers after adversarial reassignment (fresh array). *)
val apply_ids : compiled -> int array -> int array

(** Per-node randomness after bit flips (fresh array). *)
val apply_rand : compiled -> int64 array -> int64 array

(** Is the 1-based [ordinal]-th probe of the query at [node] lost? *)
val probe_fails : compiled -> node:int -> ordinal:int -> bool

(** The healthy subgraph H: nodes with outputs, unblocked edges
    between them; index maps back to the host graph. *)
type healthy = {
  sub : Graph.t;
  host_of_node : int array;
  host_of_port : (int * int) array array;
}

val healthy_subgraph :
  compiled -> Graph.t -> has_output:(int -> bool) -> healthy

(** Violations of the partial labeling restricted to the healthy
    subgraph, in host-graph coordinates: crashed nodes impose nothing,
    survivors are checked at their reduced degree, nothing crosses a
    severed edge. *)
val verify_healthy :
  compiled -> Graph.t -> problem:Lcl.Problem.t ->
  labeling:int array array -> has_output:(int -> bool) ->
  Lcl.Verify.violation list
