(** Crash-safe checkpoint files: JSONL, written via tmp+rename.

    A checkpoint is one meta header line (magic, kind, and the identity
    fields of the computation — circuit, engine, seed, sizes) followed
    by payload lines, all JSON objects in the journal's encoding.
    {!save} is atomic: a crash at any instant leaves either the
    previous complete checkpoint or the new one on disk, never a torn
    file.  Clients ({!Fsim.Restart}, ATPG, the lot tester) own their
    payload schema; this module owns durability and identity checking. *)

exception Mismatch of string
(** Raised by clients when a checkpoint's identity does not match the
    resuming invocation (different circuit, seed, engine, ...). *)

val save :
  path:string -> meta:Report.Json.t -> payload:Report.Json.t list -> unit
(** Write [meta] then [payload], one JSON value per line, atomically
    (tmp file, fsync, rename).  Hits the ["checkpoint.save"] failpoint
    before touching the filesystem.  Raises [Sys_error] on IO failure,
    leaving any previous checkpoint intact. *)

val load : path:string -> (Report.Json.t * Report.Json.t list, string) result
(** Read back [(meta, payload)]; [Error] carries a message with a
    1-based line number for malformed JSON, or the [Sys_error] text. *)

val meta : kind:string -> fields:(string * Report.Json.t) list -> Report.Json.t
(** Build a meta header: magic + [kind] + identity [fields]. *)

val validate :
  kind:string ->
  expect:(string * Report.Json.t) list ->
  Report.Json.t ->
  (unit, string) result
(** Check a loaded meta header against this invocation's identity:
    magic, [kind], then each [expect] field structurally.  A field in
    the file that is neither magic, [kind] nor in [expect] is an error
    too.  The error message names the first offending key. *)
