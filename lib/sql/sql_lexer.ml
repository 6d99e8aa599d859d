(* Hand-written SQL lexer.

   Supports: identifiers (lowercased; double-quoted identifiers keep
   case), integer/float literals, single-quoted strings with '' escaping,
   line comments (-- ...), block comments, and the operator set of the
   dialect, including ':' for the paper's GROUP BY extension. *)

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the beginning of the current line *)
}

let make src = { src; pos = 0; line = 1; bol = 0 }

let errorf st fmt =
  Format.kasprintf
    (fun msg ->
      Errors.parse_errorf "line %d, column %d: %s" st.line
        (st.pos - st.bol + 1) msg)
    fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
  | Some '-' when peek2 st = Some '-' ->
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_trivia st
  | Some '/' when peek2 st = Some '*' ->
      advance st;
      advance st;
      let rec to_close () =
        match (peek st, peek2 st) with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | None, _ -> errorf st "unterminated block comment"
        | _ ->
            advance st;
            to_close ()
      in
      to_close ();
      skip_trivia st
  | _ -> ()

let lex_number st =
  let start = st.pos in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let is_float =
    match (peek st, peek2 st) with
    | Some '.', Some c when is_digit c -> true
    | _ -> false
  in
  if is_float then begin
    advance st;
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    (match peek st with
    | Some ('e' | 'E') ->
        advance st;
        (match peek st with
        | Some ('+' | '-') -> advance st
        | _ -> ());
        while (match peek st with Some c -> is_digit c | None -> false) do
          advance st
        done
    | _ -> ());
    let text = String.sub st.src start (st.pos - start) in
    match float_of_string_opt text with
    | Some f -> Sql_token.Float_lit f
    | None -> errorf st "malformed number %s" text
  end
  else
    let text = String.sub st.src start (st.pos - start) in
    match int_of_string_opt text with
    | Some n -> Sql_token.Int_lit n
    | None -> errorf st "integer literal %s out of range" text

let lex_string st =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> errorf st "unterminated string literal"
    | Some '\'' when peek2 st = Some '\'' ->
        Buffer.add_char buf '\'';
        advance st;
        advance st;
        go ()
    | Some '\'' -> advance st
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Sql_token.Str_lit (Buffer.contents buf)

let lex_quoted_ident st =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> errorf st "unterminated quoted identifier"
    | Some '"' -> advance st
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Sql_token.Quoted_ident (Buffer.contents buf)

let next_token st : Sql_token.positioned =
  skip_trivia st;
  let line = st.line and column = st.pos - st.bol + 1 in
  let simple tok =
    advance st;
    tok
  in
  let token =
    match peek st with
    | None -> Sql_token.Eof
    | Some c when is_digit c -> lex_number st
    | Some '\'' -> lex_string st
    | Some '"' -> lex_quoted_ident st
    | Some c when is_ident_start c ->
        let start = st.pos in
        while (match peek st with Some c -> is_ident_char c | None -> false) do
          advance st
        done;
        Sql_token.Ident
          (String.lowercase_ascii (String.sub st.src start (st.pos - start)))
    | Some '(' -> simple Sql_token.Lparen
    | Some ')' -> simple Sql_token.Rparen
    | Some ',' -> simple Sql_token.Comma
    | Some '.' -> simple Sql_token.Dot
    | Some ';' -> simple Sql_token.Semicolon
    | Some ':' -> simple Sql_token.Colon
    | Some '*' -> simple Sql_token.Star
    | Some '+' -> simple Sql_token.Plus
    | Some '-' -> simple Sql_token.Minus
    | Some '/' -> simple Sql_token.Slash
    | Some '|' when peek2 st = Some '|' ->
        advance st;
        advance st;
        Sql_token.Concat_op
    | Some '=' -> simple Sql_token.Eq
    | Some '!' when peek2 st = Some '=' ->
        advance st;
        advance st;
        Sql_token.Neq
    | Some '<' -> (
        advance st;
        match peek st with
        | Some '=' ->
            advance st;
            Sql_token.Lte
        | Some '>' ->
            advance st;
            Sql_token.Neq
        | _ -> Sql_token.Lt)
    | Some '>' -> (
        advance st;
        match peek st with
        | Some '=' ->
            advance st;
            Sql_token.Gte
        | _ -> Sql_token.Gt)
    | Some c -> errorf st "unexpected character %C" c
  in
  { Sql_token.token; line; column }

(** Tokenise the whole input (including a trailing [Eof]). *)
let tokenize src : Sql_token.positioned list =
  let st = make src in
  let rec go acc =
    let t = next_token st in
    match t.Sql_token.token with
    | Sql_token.Eof -> List.rev (t :: acc)
    | _ -> go (t :: acc)
  in
  go []
